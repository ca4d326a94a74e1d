// Command benchjson runs the repo's perf-anchor benchmarks and emits one
// machine-readable JSON document, the format committed as BENCH_XXXX.json
// snapshots (see README "Observability"). Five scenarios cover the cost
// centers of the valuation pipeline:
//
//   - als_completion: the ALS matrix-completion solver on a
//     utility-shaped T=10 × 4,000-column rank-5 matrix whose row 0 is
//     fully observed (mc.UtilityShaped; internal/mc's hot path),
//   - observation_throughput: cold-cache permutation-prefix test-loss
//     evaluation fanned out over a worker pool (Algorithm 1's dominant
//     cost),
//   - mixed_load_small_job_latency: time-to-first-report for a small job
//     submitted behind a large sharded job on a one-worker scheduler (the
//     quantity the stage-graph scheduler exists to bound),
//   - adaptive_valuation: a tolerance-driven run against the fixed-budget
//     baseline on the same large job — utility-call savings from early
//     stopping plus the worst-case value deviation it costs. The counts
//     and deviations are deterministic, so the scenario fails loudly if
//     the run stops late or drifts past the tolerance.
//   - warm_cache_valuation: one run-backed job valued cold on a fresh
//     manager, then again on a restarted manager warm-started from the
//     run's persistent cell sidecar. Reports must stay byte-identical
//     and the warm hit rate must clear 90%, so a cache regression fails
//     the bench instead of skewing it.
//
// The first two run once per -cpu entry with GOMAXPROCS pinned, so a
// single document records the scaling curve. Numbers are comparable only
// across snapshots taken on the same hardware; each document records
// NumCPU so a reader can tell when the host could not exercise a
// multicore claim.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"comfedsv"
	"comfedsv/internal/dataset"
	"comfedsv/internal/fl"
	"comfedsv/internal/mc"
	"comfedsv/internal/model"
	"comfedsv/internal/persist"
	"comfedsv/internal/rng"
	"comfedsv/internal/service"
	"comfedsv/internal/utility"
)

type benchResult struct {
	Name        string             `json:"name"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Workers     int                `json:"workers,omitempty"`
	Iterations  int                `json:"iterations"`
	NsPerOp     int64              `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

type document struct {
	Schema      string        `json:"schema"`
	GeneratedAt string        `json:"generated_at"`
	GoVersion   string        `json:"go_version"`
	NumCPU      int           `json:"num_cpu"`
	Quick       bool          `json:"quick,omitempty"`
	Note        string        `json:"note"`
	Benchmarks  []benchResult `json:"benchmarks"`
}

func main() {
	var (
		out   = flag.String("out", "", "write the JSON document here (empty = stdout)")
		cpus  = flag.String("cpu", "1,2,4", "comma-separated GOMAXPROCS values to sweep")
		quick = flag.Bool("quick", false, "CI-sized fixtures: smaller matrices and jobs, one repetition")
	)
	flag.Parse()

	var cpuList []int
	for _, s := range strings.Split(*cpus, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "benchjson: bad -cpu entry %q\n", s)
			os.Exit(2)
		}
		cpuList = append(cpuList, n)
	}

	doc := document{
		Schema:      "comfedsv-bench/v1",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		Quick:       *quick,
		Note: "Perf anchor for the ComFedSV valuation pipeline. ns_per_op values are " +
			"comparable only across documents generated on the same hardware; when " +
			"num_cpu < gomaxprocs the host cannot exercise multicore scaling and the " +
			"sweep measures scheduling overhead only.",
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	// --- als_completion ---
	rows, cols := 10, 4000
	if *quick {
		rows, cols = 10, 400
	}
	obs := mc.UtilityShaped(rows, cols, 5, 42)
	for _, cpu := range cpuList {
		runtime.GOMAXPROCS(cpu)
		cfg := mc.DefaultConfig(5)
		cfg.Workers = cpu
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mc.Complete(context.Background(), obs, rows, cols, cfg); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		})
		if benchErr != nil {
			fail(fmt.Errorf("als_completion: %w", benchErr))
		}
		doc.Benchmarks = append(doc.Benchmarks, toResult("als_completion", cpu, cpu, r))
		fmt.Fprintf(os.Stderr, "als_completion gomaxprocs=%d: %v\n", cpu, r)
	}

	// --- observation_throughput ---
	clients, rounds, perRound, cellsPerRound := 8, 6, 3, 24
	if *quick {
		clients, rounds, perRound, cellsPerRound = 6, 4, 2, 8
	}
	eval, err := buildEvaluator(clients, rounds, perRound)
	if err != nil {
		fail(fmt.Errorf("observation fixture: %w", err))
	}
	run := eval.Run()
	cells := observationCells(clients, rounds, cellsPerRound)
	ctx := context.Background()
	for _, cpu := range cpuList {
		runtime.GOMAXPROCS(cpu)
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A cold evaluator per iteration: the measured work is the
				// distinct-cell test-loss evaluations, not memo-table hits.
				cold := utility.NewEvaluator(run)
				if _, err := cold.UtilityBatchCtx(ctx, cells, cpu); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		})
		if benchErr != nil {
			fail(fmt.Errorf("observation_throughput: %w", benchErr))
		}
		res := toResult("observation_throughput", cpu, cpu, r)
		res.Extra = map[string]float64{"cells": float64(len(cells))}
		doc.Benchmarks = append(doc.Benchmarks, res)
		fmt.Fprintf(os.Stderr, "observation_throughput gomaxprocs=%d: %v\n", cpu, r)
	}

	// --- mixed_load_small_job_latency ---
	// Timed manually rather than via testing.Benchmark: each repetition
	// carries an expensive unmeasured big job, so iteration count must be
	// bounded, not benchtime-driven.
	reps := 3
	bigSamples, bigShards := 400, 8
	if *quick {
		reps, bigSamples, bigShards = 1, 100, 4
	}
	for _, cpu := range cpuList {
		runtime.GOMAXPROCS(cpu)
		var total time.Duration
		for i := 0; i < reps; i++ {
			lat, err := mixedLoadOnce(bigSamples, bigShards)
			if err != nil {
				fail(fmt.Errorf("mixed_load: %w", err))
			}
			total += lat
		}
		mean := total / time.Duration(reps)
		doc.Benchmarks = append(doc.Benchmarks, benchResult{
			Name:       "mixed_load_small_job_latency",
			GOMAXPROCS: cpu,
			Workers:    1,
			Iterations: reps,
			NsPerOp:    mean.Nanoseconds(),
			Extra: map[string]float64{
				"big_job_mc_samples": float64(bigSamples),
				"big_job_shards":     float64(bigShards),
			},
		})
		fmt.Fprintf(os.Stderr, "mixed_load_small_job_latency gomaxprocs=%d: %v/op (%d reps)\n", cpu, mean, reps)
	}

	// --- adaptive_valuation ---
	// One large job, two modes, same seed: fixed budget exhausts every
	// sampled permutation; tolerance mode stops at the first wave whose
	// estimates moved less than the tolerance. Utility calls (distinct
	// test-loss evaluations) are the paper's cost unit, so the savings
	// fraction — not wall time — is the headline number. Both counts and
	// the deviation are deterministic, host-independent quantities.
	// 24 clients puts the full-participation warm-up round past the exact
	// FedSV enumeration limit, so the baseline uses the sampled estimator
	// and the job's utility bill is dominated by Monte-Carlo observation
	// cells — the regime where early stopping pays.
	aClients, aRounds, aBudget, aTol, aReps := 24, 10, 400, 0.05, 3
	if *quick {
		aClients, aRounds, aBudget, aTol, aReps = 22, 5, 64, 0.1, 1
	}
	{
		cpu := cpuList[len(cpuList)-1]
		runtime.GOMAXPROCS(cpu)
		cls, test, opts := adaptiveFixture(aClients, aRounds, aBudget)
		opts.Parallelism = cpu

		fixedStart := time.Now()
		fixedRep, err := comfedsv.ValueCtx(ctx, cls, test, opts)
		if err != nil {
			fail(fmt.Errorf("adaptive_valuation fixed baseline: %w", err))
		}
		fixedDur := time.Since(fixedStart)

		adOpts := opts
		adOpts.Tolerance = aTol
		var total time.Duration
		var adRep *comfedsv.Report
		for i := 0; i < aReps; i++ {
			start := time.Now()
			adRep, err = comfedsv.ValueCtx(ctx, cls, test, adOpts)
			if err != nil {
				fail(fmt.Errorf("adaptive_valuation: %w", err))
			}
			total += time.Since(start)
		}

		if adRep.ObservationsUsed >= adRep.ObservationsBudget {
			fail(fmt.Errorf("adaptive_valuation: no early stop (used %d of %d); tolerance %v too tight for this fixture",
				adRep.ObservationsUsed, adRep.ObservationsBudget, aTol))
		}
		savings := 1 - float64(adRep.UtilityCalls)/float64(fixedRep.UtilityCalls)
		var maxDev float64
		for i, v := range adRep.ComFedSV {
			if d := abs(v - fixedRep.ComFedSV[i]); d > maxDev {
				maxDev = d
			}
		}
		if maxDev > aTol {
			fail(fmt.Errorf("adaptive_valuation: values drifted %v past tolerance %v", maxDev, aTol))
		}
		if !*quick && savings < 0.30 {
			fail(fmt.Errorf("adaptive_valuation: utility-call savings %.1f%% below the 30%% bar (fixed %d, adaptive %d)",
				savings*100, fixedRep.UtilityCalls, adRep.UtilityCalls))
		}
		doc.Benchmarks = append(doc.Benchmarks, benchResult{
			Name:       "adaptive_valuation",
			GOMAXPROCS: cpu,
			Workers:    cpu,
			Iterations: aReps,
			NsPerOp:    (total / time.Duration(aReps)).Nanoseconds(),
			Extra: map[string]float64{
				"fixed_ns_per_op":        float64(fixedDur.Nanoseconds()),
				"utility_calls_fixed":    float64(fixedRep.UtilityCalls),
				"utility_calls_adaptive": float64(adRep.UtilityCalls),
				"utility_call_savings":   savings,
				"observations_used":      float64(adRep.ObservationsUsed),
				"observations_budget":    float64(adRep.ObservationsBudget),
				"tolerance":              aTol,
				"max_value_deviation":    maxDev,
			},
		})
		fmt.Fprintf(os.Stderr, "adaptive_valuation gomaxprocs=%d: %v/op, utility calls %d -> %d (%.1f%% saved), max deviation %.4g (tol %v)\n",
			cpu, total/time.Duration(aReps), fixedRep.UtilityCalls, adRep.UtilityCalls, savings*100, maxDev, aTol)
	}

	// --- warm_cache_valuation ---
	// The persistent utility-cell cache across a daemon restart: one
	// run-backed Monte-Carlo job runs cold on a fresh manager (cells flush
	// to the run's sidecar), then the manager is torn down and a new one
	// over the same store serves the identical job warm. Cold and warm
	// wall-clocks are both recorded; the self-checks are deterministic —
	// the warm report must be byte-identical and the warm hit rate must
	// clear 90% (it is 100% by construction: a restarted daemon preloads
	// every cell the cold job evaluated).
	wClients, wRounds, wSamples, wShards, wReps := 24, 10, 200, 4, 3
	if *quick {
		wClients, wRounds, wSamples, wShards, wReps = 12, 5, 48, 2, 1
	}
	{
		cpu := cpuList[len(cpuList)-1]
		runtime.GOMAXPROCS(cpu)
		dir, err := os.MkdirTemp("", "comfedsv-bench-cells-")
		if err != nil {
			fail(fmt.Errorf("warm_cache_valuation: %w", err))
		}
		defer os.RemoveAll(dir)
		req := mixedRequest(91, wClients, wSamples, wRounds, wShards)
		req.Options.Parallelism = cpu
		spec := service.RunSpec{Clients: req.Clients, Test: req.Test, Options: req.Options}

		coldDur, coldRep, coldMetrics, err := warmCacheJob(dir, cpu, spec, req)
		if err != nil {
			fail(fmt.Errorf("warm_cache_valuation cold: %w", err))
		}
		if coldMetrics.CellsPersisted == 0 {
			fail(fmt.Errorf("warm_cache_valuation: cold job persisted no cells"))
		}
		if coldMetrics.CellsPreloaded != 0 {
			fail(fmt.Errorf("warm_cache_valuation: cold job preloaded %d cells from an empty store", coldMetrics.CellsPreloaded))
		}

		var warmTotal time.Duration
		var warmMetrics service.Metrics
		for i := 0; i < wReps; i++ {
			warmDur, warmRep, met, err := warmCacheJob(dir, cpu, spec, req)
			if err != nil {
				fail(fmt.Errorf("warm_cache_valuation warm: %w", err))
			}
			if !jsonEqual(coldRep, warmRep) {
				fail(fmt.Errorf("warm_cache_valuation: warm report is not byte-identical to the cold one"))
			}
			warmTotal += warmDur
			warmMetrics = met
		}
		warmMean := warmTotal / time.Duration(wReps)
		if warmMetrics.CellsPreloaded == 0 {
			fail(fmt.Errorf("warm_cache_valuation: restarted manager preloaded no cells"))
		}
		var warmMisses int64
		for _, rc := range warmMetrics.RunCaches {
			warmMisses += int64(rc.Misses)
		}
		hitRate := float64(warmMetrics.CellsWarmHits) / float64(warmMetrics.CellsWarmHits+warmMisses)
		if hitRate < 0.90 {
			fail(fmt.Errorf("warm_cache_valuation: warm hit rate %.1f%% below the 90%% bar (%d warm hits, %d misses)",
				hitRate*100, warmMetrics.CellsWarmHits, warmMisses))
		}
		doc.Benchmarks = append(doc.Benchmarks, benchResult{
			Name:       "warm_cache_valuation",
			GOMAXPROCS: cpu,
			Workers:    cpu,
			Iterations: wReps,
			NsPerOp:    warmMean.Nanoseconds(),
			Extra: map[string]float64{
				"cold_ns_per_op":  float64(coldDur.Nanoseconds()),
				"cells_persisted": float64(coldMetrics.CellsPersisted),
				"cells_preloaded": float64(warmMetrics.CellsPreloaded),
				"warm_hits":       float64(warmMetrics.CellsWarmHits),
				"warm_misses":     float64(warmMisses),
				"warm_hit_rate":   hitRate,
				"speedup":         float64(coldDur.Nanoseconds()) / float64(warmMean.Nanoseconds()),
			},
		})
		fmt.Fprintf(os.Stderr, "warm_cache_valuation gomaxprocs=%d: cold %v, warm %v/op (%d reps), hit rate %.1f%% (%d hits / %d misses), %.1fx\n",
			cpu, coldDur, warmMean, wReps, hitRate*100, warmMetrics.CellsWarmHits, warmMisses,
			float64(coldDur.Nanoseconds())/float64(warmMean.Nanoseconds()))
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fail(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d benchmarks)\n", *out, len(doc.Benchmarks))
}

func toResult(name string, cpu, workers int, r testing.BenchmarkResult) benchResult {
	return benchResult{
		Name:        name,
		GOMAXPROCS:  cpu,
		Workers:     workers,
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// buildEvaluator trains a small federated run and wraps it in a utility
// evaluator, mirroring the root package's benchmark fixture.
func buildEvaluator(clients, rounds, perRound int) (*utility.Evaluator, error) {
	full := dataset.GenerateImages(dataset.MNISTLikeConfig(201), clients*25+50)
	g := rng.New(202)
	train, test := dataset.TrainTestSplit(full, 50.0/float64(full.Len()), g)
	parts := dataset.PartitionIID(train, clients, g)
	m := model.NewMLP(full.Dim(), 6, full.NumClasses)
	cfg := fl.DefaultConfig(rounds, perRound)
	cfg.LearningRate = 0.1
	run, err := fl.TrainRun(cfg, m, parts, test)
	if err != nil {
		return nil, err
	}
	return utility.NewEvaluator(run), nil
}

// observationCells builds a deterministic batch of permutation-prefix
// utility-matrix cells across rounds.
func observationCells(clients, rounds, perRound int) []utility.Cell {
	g := rng.New(77)
	var cells []utility.Cell
	for round := 0; round < rounds; round++ {
		for m := 0; m < perRound; m++ {
			perm := g.Perm(clients)
			s := utility.NewSet(clients)
			for _, c := range perm[:1+m%4] {
				s.Add(c)
			}
			cells = append(cells, utility.Cell{Round: round, Subset: s})
		}
	}
	return cells
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// adaptiveFixture builds the adaptive_valuation job: `clients` separable
// 2-D clients, `rounds` training rounds, `samples` sampled permutations.
func adaptiveFixture(clients, rounds, samples int) ([]comfedsv.Client, comfedsv.Client, comfedsv.Options) {
	mk := func(off float64, points int) comfedsv.Client {
		var c comfedsv.Client
		for i := 0; i < points; i++ {
			x := off + float64(i)*0.17
			label := 0
			if x > 1 {
				label = 1
			}
			c.X = append(c.X, []float64{x, 1 - x})
			c.Y = append(c.Y, label)
		}
		return c
	}
	var cs []comfedsv.Client
	for i := 0; i < clients; i++ {
		cs = append(cs, mk(-0.5+float64(i)*0.15, 24))
	}
	opts := comfedsv.DefaultOptions(2)
	opts.Rounds = rounds
	opts.ClientsPerRound = 3
	opts.Seed = 83
	opts.MonteCarloSamples = samples
	return cs, mk(0.25, 32), opts
}

// mixedRequest builds a deterministic valuation request scaled by client
// count, Monte-Carlo samples, rounds, and shards.
func mixedRequest(seed int64, clients, samples, rounds, shards int) service.Request {
	mk := func(off float64, points int) comfedsv.Client {
		var c comfedsv.Client
		for i := 0; i < points; i++ {
			x := off + float64(i)*0.17
			label := 0
			if x > 1 {
				label = 1
			}
			c.X = append(c.X, []float64{x, 1 - x})
			c.Y = append(c.Y, label)
		}
		return c
	}
	var cs []comfedsv.Client
	for i := 0; i < clients; i++ {
		cs = append(cs, mk(-0.5+float64(i)*0.2, 24))
	}
	opts := comfedsv.DefaultOptions(2)
	opts.Rounds = rounds
	opts.ClientsPerRound = 3
	opts.Seed = seed
	opts.MonteCarloSamples = samples
	opts.Shards = shards
	return service.Request{Clients: cs, Test: mk(0.25, 32), Options: opts}
}

// warmCacheJob boots a manager over the run store at dir, ensures the
// spec's shared run exists (training once, on the first call), runs the
// run-backed job to completion, and returns the submit→done duration,
// the report, and the manager's final metrics. Each call is one full
// daemon lifecycle, so a second call over the same dir measures a
// restarted daemon warm-starting from the cell sidecar.
func warmCacheJob(dir string, workers int, spec service.RunSpec, req service.Request) (time.Duration, *comfedsv.Report, service.Metrics, error) {
	var zero service.Metrics
	store, err := persist.NewRunStore(dir)
	if err != nil {
		return 0, nil, zero, err
	}
	m, err := service.NewManager(service.Config{Workers: workers, RunStore: store})
	if err != nil {
		return 0, nil, zero, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	}()
	if _, _, err := m.CreateRun(spec); err != nil {
		return 0, nil, zero, err
	}
	runID := service.RunIDForSpec(spec)
	for {
		st, err := m.RunStatus(runID)
		if err != nil {
			return 0, nil, zero, err
		}
		if st.State == service.RunFailed {
			return 0, nil, zero, fmt.Errorf("run failed: %s", st.Error)
		}
		if st.State == service.RunReady {
			break
		}
		time.Sleep(500 * time.Microsecond)
	}
	req.Clients, req.Test = nil, comfedsv.Client{}
	req.RunID = runID
	start := time.Now()
	id, err := m.Submit(req)
	if err != nil {
		return 0, nil, zero, err
	}
	for {
		st, err := m.Status(id)
		if err != nil {
			return 0, nil, zero, err
		}
		if st.State.Terminal() {
			if st.State != service.StateDone {
				return 0, nil, zero, fmt.Errorf("job finished %s (%s)", st.State, st.Error)
			}
			break
		}
		time.Sleep(500 * time.Microsecond)
	}
	dur := time.Since(start)
	rep, err := m.Report(id)
	if err != nil {
		return 0, nil, zero, err
	}
	return dur, rep, m.Metrics(), nil
}

// jsonEqual compares two reports by their canonical JSON encoding — the
// byte-identity contract the cache promises at the HTTP boundary.
func jsonEqual(a, b *comfedsv.Report) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && string(ja) == string(jb)
}

// mixedLoadOnce runs one big-job-then-small-job pair on a one-worker
// scheduler and returns the small job's submit→report latency. The big job
// is cancelled once the small job finishes, so a repetition's cost is
// bounded by the measured quantity, not the big job's full runtime.
func mixedLoadOnce(bigSamples, bigShards int) (time.Duration, error) {
	m, err := service.NewManager(service.Config{Workers: 1})
	if err != nil {
		return 0, err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	}()
	idBig, err := m.Submit(mixedRequest(61, 12, bigSamples, 10, bigShards))
	if err != nil {
		return 0, err
	}
	start := time.Now()
	idSmall, err := m.Submit(mixedRequest(62, 4, 0, 4, 1))
	if err != nil {
		return 0, err
	}
	for {
		st, err := m.Status(idSmall)
		if err != nil {
			return 0, err
		}
		if st.State.Terminal() {
			if st.State != service.StateDone {
				return 0, fmt.Errorf("small job finished %s (%s)", st.State, st.Error)
			}
			break
		}
		time.Sleep(500 * time.Microsecond)
	}
	lat := time.Since(start)
	m.Cancel(idBig)
	return lat, nil
}

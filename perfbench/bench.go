package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"comfedsv/internal/persist"
)

// setupRepeats is how many times a run sets up its daemon; setup_s is the
// median.
const setupRepeats = 7

// setupPoll is the warm-up valuation's status poll interval, fine enough
// not to quantize a set-up of a few milliseconds.
const setupPoll = 200 * time.Microsecond

// warmupShape is the small valuation each set-up pushes through the fresh
// daemon before timing starts, so first-request costs land in setup_s. It
// runs every pipeline stage and is sized so CPU work, not the few
// milliseconds of store fsyncs whose latency the host's disk sets,
// dominates the set-up time.
var warmupShape = Shape{Model: "logreg", Clients: 12, Points: 24, Dim: 20, Classes: 4, TestPoints: 200,
	Rounds: 10, PerRound: 3, Permutations: 100, Shards: 2, LearningRate: 0.5}

// bench is one benchmark run: a workload, its seed, and the daemon under
// test.
type bench struct {
	name      string
	w         workload
	seed      int64
	dir       string
	workerBin string
	client    *http.Client
	runs      *persist.RunStore // read-only handle on the daemon's runs-dir

	d       *daemon
	dirty   bool         // warm: some run was valued since the last restart
	nextIdx atomic.Int64 // cold: next fresh job index
	ids     atomic.Int64 // span job IDs
	setups  []float64

	warmIn      []jobInput // warm: the persisted runs' inputs
	coldReports [][]byte   // warm: each run's report from its cold job
	prefill     time.Duration
	peakReset   bool // the kernel took every peak-RSS reset
	spansOut    string
}

func newBench(name string, w workload, seed int64, workDir, workerBin string) (*bench, error) {
	dir := filepath.Join(workDir, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	runs, err := persist.NewRunStore(filepath.Join(dir, "runs"))
	if err != nil {
		return nil, err
	}
	return &bench{
		name: name, w: w, seed: seed, dir: dir, workerBin: workerBin, runs: runs, peakReset: true,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
	}, nil
}

// close stops the daemon (and worker) and removes the run's scratch dir.
func (b *bench) close() error {
	var err error
	if b.d != nil {
		err = b.d.stop()
		b.d = nil
	}
	b.client.CloseIdleConnections()
	return errors.Join(err, os.RemoveAll(b.dir))
}

func (b *bench) warm() bool { return b.w.warmRuns > 0 }

// setup brings the daemon up setupRepeats times, each time timing the
// start plus one tiny valuation; the last daemon stays up. A warm workload
// first values its runs cold (once, reported as prefill_s), and each
// repeat is then a restart over the warm runs-dir with the worker.
func (b *bench) setup() error {
	if b.warm() {
		if err := b.prefillWarm(); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	for i := 0; i < setupRepeats; i++ {
		// Each set-up starts from the live heap, as a fresh process would,
		// not while the collector works off the previous daemon's garbage.
		debug.FreeOSMemory()
		t0 := time.Now()
		d, err := startDaemon(b.dir, b.w.remote, b.workerBin)
		if err != nil {
			return err
		}
		b.d = d
		fed := Generate(warmupShape, b.seed, -1-i)
		v := &httpValuator{base: d.base, shape: warmupShape, client: b.client, ids: &b.ids, poll: setupPoll}
		if r := v.valuate(context.Background(), -1-i, jobInput{fed: fed, runBody: warmupShape.RunBody(fed)}); r.Err != nil {
			return fmt.Errorf("warm-up valuation: %w", r.Err)
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
		b.dirty = false
		if i < setupRepeats-1 {
			b.d = nil
			if err := d.stop(); err != nil {
				return err
			}
		}
	}
	return nil
}

// prefillWarm values every warm run once on a plain daemon, so the code
// under test writes the traces and cell sidecars, and records each cold
// report for the byte-identity check.
func (b *bench) prefillWarm() error {
	t0 := time.Now()
	b.warmIn = make([]jobInput, b.w.warmRuns)
	for i := range b.warmIn {
		fed := Generate(b.w.shape, b.seed, i)
		b.warmIn[i] = jobInput{fed: fed, runBody: b.w.shape.RunBody(fed)}
	}
	d, err := startDaemon(b.dir, false, "")
	if err != nil {
		return err
	}
	v := &httpValuator{base: d.base, shape: b.w.shape, client: b.client, ids: &b.ids}
	pr := closedLoop(context.Background(), 2, counter(b.w.warmRuns), func(i int) jobInput { return b.warmIn[i] }, v, nil)
	b.coldReports = make([][]byte, b.w.warmRuns)
	for _, r := range pr.jobs {
		if r.Err != nil {
			d.stop()
			return fmt.Errorf("cold job %d: %w", r.Index, r.Err)
		}
		b.coldReports[r.Index] = r.Report
	}
	b.prefill = time.Since(t0)
	return d.stop()
}

// counter yields 0..n-1 once each, safely across clients.
func counter(n int) func() (int, bool) {
	var next atomic.Int64
	return func() (int, bool) {
		i := int(next.Add(1) - 1)
		return i, i < n
	}
}

// phaseSpec is one closed-loop measurement.
type phaseSpec struct {
	clients int
	dur     time.Duration
	traced  bool // record HTTP spans and per-job layer probes
	inproc  bool // submit through service.Manager with OnStageTime hooks
}

// phaseOut aggregates a phase's passes.
type phaseOut struct {
	jobs     []jobResult
	counts   []int
	busy     []time.Duration
	cpu      float64            // process + worker CPU seconds inside passes
	peaks    []float64          // per pass: process + worker peak RSS, MiB
	counters map[string]float64 // /v1/metrics deltas summed over passes
}

// throughput is Σ over clients of jobs/busy time: each closed-loop
// client's own completion rate, so a job still running at the deadline
// neither adds nor drops a fraction.
func (p phaseOut) throughput() float64 {
	t := 0.0
	for c, n := range p.counts {
		if p.busy[c] > 0 {
			t += float64(n) / p.busy[c].Seconds()
		}
	}
	return t
}

func (p phaseOut) ok() []jobResult {
	var out []jobResult
	for _, r := range p.jobs {
		if r.Err == nil {
			out = append(out, r)
		}
	}
	return out
}

// phase runs one measurement. A cold workload runs one pass over fresh
// federations until the deadline. A warm workload runs passes over its
// persisted runs, restarting the daemon and worker before every pass
// whose runs were already valued, so each timed job is the first on its
// run since a restart; restarts are not timed.
func (b *bench) phase(ps phaseSpec) (phaseOut, error) {
	out := phaseOut{counts: make([]int, ps.clients), busy: make([]time.Duration, ps.clients), counters: map[string]float64{}}
	deadline := time.Now().Add(ps.dur)
	for {
		if b.warm() && b.dirty {
			err := b.d.stop()
			b.d = nil
			if err != nil {
				return out, fmt.Errorf("restart: %w", err)
			}
			d, err := startDaemon(b.dir, b.w.remote, b.workerBin)
			if err != nil {
				return out, fmt.Errorf("restart: %w", err)
			}
			b.d = d
		}
		// A pass is one daemon lifetime; a real restart starts a fresh
		// process, so each pass's peak RSS starts from the live heap.
		b.peakReset = resetPeakRSS() && b.peakReset
		before, err := b.scrape()
		if err != nil {
			return out, err
		}
		cpu0 := selfCPU() + b.d.workerCPU()

		var v valuator = &httpValuator{base: b.d.base, shape: b.w.shape, client: b.client, trace: ps.traced, ids: &b.ids}
		if ps.inproc {
			v = &inprocValuator{mgr: b.d.mgr, shape: b.w.shape, ids: &b.ids}
		}
		var next func() (int, bool)
		input := b.coldInput
		if b.warm() {
			next = counter(b.w.warmRuns)
			input = func(i int) jobInput { return b.warmIn[i] }
		} else {
			next = func() (int, bool) {
				if time.Now().After(deadline) {
					return 0, false
				}
				return int(b.nextIdx.Add(1) - 1), true
			}
		}
		pr := closedLoop(context.Background(), ps.clients, next, input, v, func(r *jobResult) { b.afterJob(r, ps.traced) })

		out.cpu += selfCPU() + b.d.workerCPU() - cpu0
		out.peaks = append(out.peaks, selfPeakRSS()+b.d.workerRSS())
		after, err := b.scrape()
		if err != nil {
			return out, err
		}
		for k, v := range after {
			out.counters[k] += v - before[k]
		}
		b.dirty = true
		out.jobs = append(out.jobs, pr.jobs...)
		for c := range pr.counts {
			out.counts[c] += pr.counts[c]
			out.busy[c] += pr.busy[c]
		}
		if !b.warm() || time.Now().After(deadline) {
			return out, nil
		}
	}
}

func (b *bench) coldInput(i int) jobInput {
	fed := Generate(b.w.shape, b.seed, i)
	return jobInput{fed: fed, runBody: b.w.shape.RunBody(fed)}
}

// afterJob runs on the client goroutine once a job's clock has stopped.
// Traced jobs probe the persist layer on their run: the sidecar's size
// and a timed RunStore.LoadRun + ReadCells. Cold runs are then deleted so
// the daemon's resident set tracks concurrency, not how many jobs fit in
// the run.
func (b *bench) afterJob(r *jobResult, traced bool) {
	if r.RunID == "" {
		return
	}
	if traced {
		if fi, err := os.Stat(filepath.Join(b.dir, "runs", r.RunID+".cells")); err == nil {
			r.SidecarBytes = float64(fi.Size())
		}
		t0 := time.Now()
		if _, err := b.runs.LoadRun(r.RunID); err == nil {
			if _, err := b.runs.ReadCells(r.RunID); err == nil {
				r.LoadSeconds = time.Since(t0).Seconds()
			}
		}
	}
	if !b.warm() {
		if err := b.d.mgr.DeleteRun(r.RunID); err != nil && r.Err == nil {
			r.Err = fmt.Errorf("deleting run %s: %w", r.RunID, err)
		}
	}
}

// scrape reads the daemon's /v1/metrics and sums every series by metric
// name (labels dropped).
func (b *bench) scrape() (map[string]float64, error) {
	resp, err := b.client.Get(b.d.base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

func parseProm(r interface{ Read([]byte) (int, error) }) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if strings.Contains(name[i:], `stage="observe"`) {
				out[name[:i]+".observe"] += v
			}
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}

// inputsInfo records the input properties a later claim may depend on.
func (b *bench) inputsInfo(reports [][]byte, columns int) map[string]any {
	s := b.w.shape
	density, calls := reportMedians(reports)
	info := map[string]any{
		"num_cpu":             runtime.NumCPU(),
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"closed_loop_clients": 2,
		"model":               s.Model,
		"clients":             s.Clients,
		"points_per_client":   s.Points,
		"dim":                 s.Dim,
		"classes":             s.Classes,
		"rounds":              s.Rounds,
		"clients_per_round":   s.PerRound,
		"permutations":        s.Permutations,
		"shards":              s.Shards,
		"test_points":         s.TestPoints,
		"observed_density":    density,
		"utility_calls":       calls,
		"distinct_columns":    columns,
		"duplicate_pair":      []int{0, 1},
	}
	if s.Model == "mlp" {
		info["hidden_units"] = s.Hidden
	}
	if b.warm() {
		info["warm_runs"] = b.w.warmRuns
		if b.w.remote {
			info["remote_workers"] = 1
		}
		info["prefill_s"] = b.prefill.Seconds()
	}
	return info
}

// run sets up, measures, checks, and returns the result line plus the
// informational lines printed before it.
func (b *bench) run(dur time.Duration, traced bool) (result, map[string]any, error) {
	if err := b.setup(); err != nil {
		return result{}, nil, fmt.Errorf("setup: %w", err)
	}
	if traced {
		return b.runTraced(dur)
	}
	ph, err := b.phase(phaseSpec{clients: 2, dur: dur})
	if err != nil {
		return result{}, nil, err
	}
	chk := b.check(ph.jobs)
	res, info := b.endToEnd(ph, chk)
	return res, info, nil
}

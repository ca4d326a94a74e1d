// Command perfbench is the repository's end-to-end benchmark. It drives an
// in-process comfedsvd daemon (service.Manager + api.Server on a loopback
// listener, the wiring cmd/comfedsvd uses) with a closed loop of two
// clients, each running one valuation at a time:
//
//	POST /v1/runs → POST /v1/jobs {run_id} → poll status → GET report
//
// Every input is generated from --seed. It checks the outputs, and prints
// one JSON result line last:
//
//	go build -o .bench_build/perfbench ./perfbench   (see run.sh)
//	perfbench --workload als_mc24 --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced
// passes and reports the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark input mix.
type workload struct {
	shape Shape
	// warmRuns > 0 makes the workload warm: setup values that many
	// persisted runs cold, then every timed job is the first on its run
	// since a daemon restart.
	warmRuns int
	// remote restarts the warm daemon with the dispatch coordinator on and
	// one cmd/comfedsv-worker child, so observation shards run remotely.
	remote bool
}

var workloads = map[string]workload{
	// LR: ALS completion dominates the job.
	"als_mc24": {shape: Shape{Model: "logreg", Clients: 24, Points: 24, Dim: 20, Classes: 4, TestPoints: 200,
		Rounds: 10, PerRound: 3, Permutations: 200, Shards: 4, LearningRate: 0.5}},
	// MLP: test-loss evaluation dominates the job.
	"eval_mc24": {shape: evalShape},
	// eval_mc24's job shape against warm, persisted runs after a restart.
	"warm_restart": {shape: evalShape, warmRuns: 8},
	// warm_restart on the remote path. Not in BENCHMARK.json: its reports
	// differ from the cold local reports in utility_calls (see README.md).
	"warm_remote": {shape: evalShape, warmRuns: 8, remote: true},
	// Exact Definition-4 pipeline at a size where GroundTruth is cheap.
	"exact_n12": {shape: Shape{Model: "logreg", Clients: 12, Points: 24, Dim: 20, Classes: 4, TestPoints: 200,
		Rounds: 10, PerRound: 3, Permutations: 0, Shards: 1, LearningRate: 0.5}},
}

var evalShape = Shape{Model: "mlp", Clients: 24, Points: 60, Dim: 20, Classes: 4, TestPoints: 400, Hidden: 32,
	Rounds: 10, PerRound: 3, Permutations: 100, Shards: 4, LearningRate: 0.5}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds   = flag.Int("seconds", 22, "measured seconds per run")
		trace     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		workerBin = flag.String("worker-bin", ".bench_build/comfedsv-worker", "comfedsv-worker binary for warm_remote")
		workDir   = flag.String("workdir", ".bench_build/work", "scratch directory for daemon stores (emptied per run)")
		spansOut  = flag.String("spans", ".bench_build/spans.jsonl", "where a traced run writes its spans, one JSON object a line")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	b, err := newBench(*name, w, *seed, *workDir, *workerBin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b.spansOut = *spansOut
	res, info, err := b.run(time.Duration(*seconds)*time.Second, *trace == 1)
	if cerr := b.close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, k := range sortedKeys(info) {
		enc.Encode(map[string]any{k: info[k]})
	}
	enc.Encode(res)
}

func workloadNames() []string { return sortedKeys(workloads) }

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

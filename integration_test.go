package comfedsv

// Cross-module integration tests: the offline persistence pipeline
// (fedsim → datavalue in library form) and consistency between the
// serial, memoized, and parallel utility-matrix paths.

import (
	"bytes"
	"context"
	"math"
	"testing"

	"comfedsv/internal/baselines"
	"comfedsv/internal/dataset"
	"comfedsv/internal/fl"
	"comfedsv/internal/mc"
	"comfedsv/internal/model"
	"comfedsv/internal/persist"
	"comfedsv/internal/rng"
	"comfedsv/internal/shapley"
	"comfedsv/internal/utility"
)

func integrationRun(t *testing.T) *fl.Run {
	t.Helper()
	full := dataset.GenerateImages(dataset.MNISTLikeConfig(501), 200)
	g := rng.New(502)
	train, test := dataset.TrainTestSplit(full, 50.0/200, g)
	parts := dataset.PartitionIID(train, 6, g)
	m := model.NewMLP(full.Dim(), 6, full.NumClasses)
	cfg := fl.DefaultConfig(6, 2)
	cfg.LearningRate = 0.1
	run, err := fl.TrainRun(cfg, m, parts, test)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestOfflinePipelineRoundTrip(t *testing.T) {
	// Record a trace, serialize it, reload it, and verify every valuation
	// method produces identical results on the original and reloaded runs.
	run := integrationRun(t)
	var buf bytes.Buffer
	if err := persist.SaveRun(&buf, run); err != nil {
		t.Fatal(err)
	}
	loaded, err := persist.LoadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: lengths %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-12 {
				t.Fatalf("%s: value %d differs after round-trip: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
	check("fedsv", shapley.FedSV(utility.NewEvaluator(run)), shapley.FedSV(utility.NewEvaluator(loaded)))

	comA, err := shapley.ComFedSVExactCtx(context.Background(), utility.NewEvaluator(run), mc.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	comB, err := shapley.ComFedSVExactCtx(context.Background(), utility.NewEvaluator(loaded), mc.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	check("comfedsv", comA.Values, comB.Values)

	for _, method := range baselines.AllMethods {
		va, err := baselines.Compute(method, utility.NewEvaluator(run), 503)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := baselines.Compute(method, utility.NewEvaluator(loaded), 503)
		if err != nil {
			t.Fatal(err)
		}
		check(method.String(), va, vb)
	}
}

func TestUtilityPathsAgree(t *testing.T) {
	// The memoized evaluator, the serial full matrix, the parallel full
	// matrix, and a fresh evaluator's concurrent batch path must all agree
	// cell-for-cell.
	run := integrationRun(t)
	e := utility.NewEvaluator(run)
	serial := utility.FullMatrix(e)
	parallel := utility.ParallelFullMatrix(run, 3)

	n := run.NumClients()
	var cells []utility.Cell
	var want []float64
	for tr := 0; tr < len(run.Rounds); tr++ {
		for mask := uint64(1); mask < 1<<uint(n); mask += 7 { // sample cells
			cells = append(cells, utility.Cell{Round: tr, Subset: utility.FromMask(n, mask)})
			want = append(want, serial.At(tr, int(mask)))
		}
	}
	got, err := utility.NewEvaluator(run).UtilityBatchCtx(context.Background(), cells, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if math.Abs(got[i]-want[i]) > 1e-15 {
			t.Fatalf("batch cell %d: %v vs %v", i, got[i], want[i])
		}
		if p := parallel.At(cells[i].Round, int(cells[i].Subset.Mask())); p != want[i] {
			t.Fatalf("parallel cell %d: %v vs %v", i, p, want[i])
		}
	}
}

func TestGroundTruthAdditivityAcrossRoundSplits(t *testing.T) {
	// Theorem 1's additivity axiom, integration-level: valuations computed
	// over rounds [0,3) plus rounds [3,6) equal valuations over [0,6),
	// because U = U₁ + U₂ splits by rounds.
	run := integrationRun(t)
	firstHalf := &fl.Run{Model: run.Model, Test: run.Test, Clients: run.Clients, Rounds: run.Rounds[:3], Final: run.Final}
	secondHalf := &fl.Run{Model: run.Model, Test: run.Test, Clients: run.Clients, Rounds: run.Rounds[3:], Final: run.Final}

	whole := shapley.GroundTruth(utility.NewEvaluator(run))
	a := shapley.GroundTruth(utility.NewEvaluator(firstHalf))
	b := shapley.GroundTruth(utility.NewEvaluator(secondHalf))
	for i := range whole {
		if math.Abs(whole[i]-(a[i]+b[i])) > 1e-9 {
			t.Fatalf("additivity violated at client %d: %v vs %v + %v", i, whole[i], a[i], b[i])
		}
	}
}

func TestFedSVAdditivityAcrossRoundSplits(t *testing.T) {
	// FedSV is a per-round sum, so it is exactly additive across round
	// partitions as well.
	run := integrationRun(t)
	firstHalf := &fl.Run{Model: run.Model, Test: run.Test, Clients: run.Clients, Rounds: run.Rounds[:3], Final: run.Final}
	secondHalf := &fl.Run{Model: run.Model, Test: run.Test, Clients: run.Clients, Rounds: run.Rounds[3:], Final: run.Final}

	whole := shapley.FedSV(utility.NewEvaluator(run))
	a := shapley.FedSV(utility.NewEvaluator(firstHalf))
	b := shapley.FedSV(utility.NewEvaluator(secondHalf))
	for i := range whole {
		if math.Abs(whole[i]-(a[i]+b[i])) > 1e-9 {
			t.Fatalf("additivity violated at client %d", i)
		}
	}
}

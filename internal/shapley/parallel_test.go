package shapley

import (
	"context"
	"runtime"
	"testing"
)

// TestMonteCarloDeterministicAcrossWorkers pins the contract the parallel
// observation stage and parallel ALS both promise: the full Monte-Carlo
// pipeline returns bit-identical estimates for every worker count, because
// observations are recorded in the serial order and the completion's row
// updates are order-independent.
func TestMonteCarloDeterministicAcrossWorkers(t *testing.T) {
	e := duplicatedEvaluator(t, 400)
	cfg := DefaultMonteCarloConfig(6, 3, 401)

	cfg.Workers = 1
	base, err := MonteCarloCtx(context.Background(), e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseObs := base.Store.Observations()

	for _, workers := range []int{2, 5, runtime.GOMAXPROCS(0)} {
		cfg.Workers = workers
		// A fresh evaluator per run: the shared cache must not be the
		// reason results agree.
		got, err := MonteCarloCtx(context.Background(), duplicatedEvaluator(t, 400), cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got.Values) != len(base.Values) {
			t.Fatalf("workers=%d: %d values, want %d", workers, len(got.Values), len(base.Values))
		}
		for i := range base.Values {
			if base.Values[i] != got.Values[i] {
				t.Fatalf("workers=%d: value[%d] = %v, workers=1 gave %v", workers, i, got.Values[i], base.Values[i])
			}
		}
		gotObs := got.Store.Observations()
		if len(gotObs) != len(baseObs) {
			t.Fatalf("workers=%d: %d observations, want %d", workers, len(gotObs), len(baseObs))
		}
		for i := range baseObs {
			if baseObs[i] != gotObs[i] {
				t.Fatalf("workers=%d: observation %d = %+v, workers=1 recorded %+v", workers, i, gotObs[i], baseObs[i])
			}
		}
		if got.UnobservedColumns != base.UnobservedColumns {
			t.Fatalf("workers=%d: unobserved columns %d vs %d", workers, got.UnobservedColumns, base.UnobservedColumns)
		}
	}
}

// TestMonteCarloWorkersSeedCompletion checks that a MonteCarloConfig with
// only Workers set propagates the knob into the completion solve without
// overriding an explicit Completion.Workers.
func TestMonteCarloWorkersSeedCompletion(t *testing.T) {
	e := duplicatedEvaluator(t, 402)
	cfg := DefaultMonteCarloConfig(6, 3, 403)
	cfg.Workers = 2
	cfg.Completion.Workers = 1
	one, err := MonteCarloCtx(context.Background(), e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Completion.Workers = 0 // inherits cfg.Workers
	two, err := MonteCarloCtx(context.Background(), e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one.Values {
		if one.Values[i] != two.Values[i] {
			t.Fatalf("value[%d] differs between explicit and inherited completion workers", i)
		}
	}
}

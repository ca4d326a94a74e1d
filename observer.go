package comfedsv

import (
	"context"

	"comfedsv/internal/shapley"
)

// ObserveSlice is the worker-side half of distributed observation. It
// rebuilds a job's Monte-Carlo observation plan from the trained run and
// the lease parameters, then evaluates the prefix cells of the permutation
// slice [lo, hi) through the run's shared memo table. budget is the job's
// resolved permutation budget and seed its raw Options.Seed (the same
// internal derivation Valuation.Prepare applies is applied here), so the
// cells are exactly those the coordinator's own shard walk requests.
// parallelism bounds the evaluation pool and may differ from the
// coordinator's without perturbing any value.
//
// It returns every cell the slice touched as a stamped batch — the
// worker's whole completion payload; the coordinator absorbs it and
// replays the shard locally against it. Distinct slices are safe to
// evaluate concurrently.
func ObserveSlice(ctx context.Context, tr *TrainedRun, budget int, seed int64, parallelism, lo, hi int) (*CellBatch, error) {
	plan, err := shapley.NewMonteCarloPlan(ctx, tr.eval, shapley.MonteCarloConfig{
		Samples: budget,
		Seed:    seed + 1,
		Workers: parallelism,
	})
	if err != nil {
		return nil, err
	}
	return plan.ObserveSlice(ctx, lo, hi)
}

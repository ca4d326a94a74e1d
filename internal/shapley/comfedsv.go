package shapley

import (
	"context"
	"math"

	"comfedsv/internal/mc"
	"comfedsv/internal/utility"
)

// GroundTruth computes the paper's "ground-truth" baseline: ComFedSV
// evaluated on the *fully observed* utility matrix, i.e. the exact Shapley
// value of the summed per-round utility U(S) = Σ_t U_t(S). Feasible only
// for small N (it evaluates all 2^N−1 coalitions in every round).
func GroundTruth(e utility.Source) []float64 {
	n := e.Run().NumClients()
	full := utility.FullMatrix(e)
	_, cols := full.Dims()
	summed := make([]float64, cols)
	for t := range e.Run().Rounds {
		row := full.Row(t)
		for j, v := range row {
			summed[j] += v
		}
	}
	return Exact(n, func(mask uint64) float64 { return summed[mask] })
}

// ComFedSVExactCtx runs the paper's Definition 4 pipeline without
// sampling: observe all subsets of the selected clients per round, complete
// the full T×(2^N−1) utility matrix (problem 9), and take the exact Shapley
// value of the completed, per-round-summed utility. Feasible for N ≤ ~14.
// Cancellation is checked at every utility evaluation and between pipeline
// steps; the matrix-completion solve itself is not interruptible but is
// bounded by cfg.MaxIter. It drives an ExactPlan serially; schedulers that
// want to interleave the stages with other work use the plan directly.
func ComFedSVExactCtx(ctx context.Context, e utility.Source, cfg mc.Config) (*Result, error) {
	p, err := NewExactPlan(e, cfg)
	if err != nil {
		return nil, err
	}
	return Run(ctx, p)
}

// MonteCarloConfig parameterizes Algorithm 1.
type MonteCarloConfig struct {
	// Samples is the number of Monte-Carlo permutations M. Maleki et al.
	// show M = O(N log N) suffices for bounded utilities.
	Samples int
	// Completion configures the reduced matrix-completion problem (13).
	Completion mc.Config
	// Antithetic samples permutations in reversed pairs (π, reverse π).
	// A player early in π is late in reverse(π), so the two marginal-
	// contribution estimates are negatively correlated and their average
	// has lower variance — a classical Monte-Carlo variance-reduction
	// device layered on Algorithm 1 (see BenchmarkAblationAntithetic).
	Antithetic bool
	// Seed drives permutation sampling.
	Seed int64
	// Workers bounds the number of concurrent utility evaluations in the
	// observation stage (per shard); 0 means GOMAXPROCS. It also seeds
	// Completion.Workers when that is left 0, so one knob parallelizes the
	// whole pipeline. The estimate is bit-identical for every worker
	// count: cells are evaluated by a deterministic pipeline and recorded
	// into the Store in the serial order.
	Workers int
	// Shards splits every observation wave into that many disjoint
	// permutation slices (0 means 1). MonteCarloCtx runs them serially;
	// schedulers use MonteCarloPlan to run them concurrently. The estimate
	// is bit-identical for every shard count.
	Shards int
	// Tolerance, when positive, makes Samples a budget rather than a fixed
	// count: permutations are observed in waves, and sampling stops once
	// the largest absolute per-client change of the estimate from the
	// previous wave is at most Tolerance. 0 observes all Samples in one
	// wave. Must be non-negative and finite.
	Tolerance float64
}

// DefaultMonteCarloConfig returns M ≈ 2·N·ln(N) samples and the default
// completion settings at the given rank.
func DefaultMonteCarloConfig(n, rank int, seed int64) MonteCarloConfig {
	m := int(2*float64(n)*math.Log(math.Max(float64(n), 2))) + 1
	return MonteCarloConfig{Samples: m, Completion: mc.DefaultConfig(rank), Seed: seed}
}

// MonteCarloCtx implements Algorithm 1: sample M permutations, observe
// the utilities of permutation prefixes contained in each round's
// selection, solve the reduced completion problem (13), and estimate
// ComFedSV via the permutation form (12). Cancellation is checked at every
// observation boundary (the utility-call hot loop), between pipeline
// steps, and per permutation during setup and estimation; the matrix-
// completion solve itself is not interruptible but is bounded by
// cfg.Completion.MaxIter. It drives a MonteCarloPlan serially, so the
// result is byte-identical to a scheduler running the same plan's shards
// concurrently.
func MonteCarloCtx(ctx context.Context, e utility.Source, cfg MonteCarloConfig) (*Result, error) {
	p, err := NewMonteCarloPlan(ctx, e, cfg)
	if err != nil {
		return nil, err
	}
	return Run(ctx, p)
}

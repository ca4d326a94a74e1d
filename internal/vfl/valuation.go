package vfl

import (
	"context"
	"fmt"

	"comfedsv/internal/mc"
	"comfedsv/internal/rng"
	"comfedsv/internal/shapley"
)

// Config controls a vertical training + valuation run.
type Config struct {
	// Rounds is the number of coordinated gradient rounds T.
	Rounds int
	// PartiesPerRound is how many parties refresh their block per round
	// (the vertical analogue of client selection; the others keep stale
	// blocks, so the coordinator only observes utilities for coalitions of
	// refreshed parties).
	PartiesPerRound int
	// LearningRate is the gradient step size.
	LearningRate float64
	// Rank is the matrix-completion rank for ComFedSV.
	Rank int
	// Seed makes the run deterministic.
	Seed int64
}

// DefaultConfig returns a setting that converges on the bundled synthetic
// vertical tasks.
func DefaultConfig(rounds, partiesPerRound int) Config {
	return Config{
		Rounds:          rounds,
		PartiesPerRound: partiesPerRound,
		LearningRate:    0.5,
		Rank:            3,
		Seed:            1,
	}
}

// Report holds the vertical valuations.
type Report struct {
	// FedSV is the per-round Shapley value over refreshed parties only
	// (the direct transplant of Definition 2).
	FedSV []float64
	// ComFedSV is the completed variant: unobserved coalition utilities
	// are filled by low-rank completion before the Shapley computation.
	ComFedSV []float64
	// FinalTestLoss is the test loss of the final full model.
	FinalTestLoss float64
}

// Value trains the split model and values every party. The per-round
// utility of a coalition S is
//
//	U_t(S) = ℓ(model_t restricted to S ∪ {bias}) − ℓ(model_{t+1} restricted to S ∪ {bias})
//
// i.e. how much this round's refresh of S's blocks improved the part of
// the model the coalition is responsible for.
func Value(p *Problem, cfg Config) (*Report, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	mParties := len(p.Parties)
	if mParties > 14 {
		return nil, fmt.Errorf("vfl: exact valuation over 2^%d coalitions is infeasible", mParties)
	}
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("vfl: rounds must be positive, got %d", cfg.Rounds)
	}
	if cfg.PartiesPerRound <= 0 || cfg.PartiesPerRound > mParties {
		return nil, fmt.Errorf("vfl: parties per round %d out of range [1,%d]", cfg.PartiesPerRound, mParties)
	}
	g := rng.New(cfg.Seed)
	model := NewModel(p, g.Split(1))
	selRNG := g.Split(2)

	cols := 1 << uint(mParties)
	type cell struct {
		t   int
		col int
		val float64
	}
	var observed []cell
	fullUtil := make([][]float64, cfg.Rounds) // ground truth per round, by mask

	for t := 0; t < cfg.Rounds; t++ {
		before := model.Clone()
		model.Step(p, cfg.LearningRate)

		// Selection: which parties' refresh the coordinator "sees" this
		// round (round 0 is full, Assumption 1).
		var selected []int
		if t == 0 {
			for i := 0; i < mParties; i++ {
				selected = append(selected, i)
			}
		} else {
			selected = selRNG.SampleWithoutReplacement(mParties, cfg.PartiesPerRound)
		}
		selMask := uint64(0)
		for _, s := range selected {
			selMask |= 1 << uint(s)
		}

		// Utilities of every coalition (ground truth) and the observed
		// subset (coalitions of selected parties).
		fullUtil[t] = make([]float64, cols)
		active := make([]bool, mParties)
		for mask := uint64(1); mask < uint64(cols); mask++ {
			for i := 0; i < mParties; i++ {
				active[i] = mask&(1<<uint(i)) != 0
			}
			u := before.Loss(p, active) - model.Loss(p, active)
			fullUtil[t][mask] = u
			if mask&^selMask == 0 { // mask ⊆ selected
				observed = append(observed, cell{t: t, col: int(mask), val: u})
			}
		}
	}

	report := &Report{FinalTestLoss: model.Loss(p, nil)}

	// FedSV transplant: exact Shapley per round over the observed
	// coalition lattice (round 0 full, later rounds only the selected).
	report.FedSV = make([]float64, mParties)
	for t := range fullUtil {
		// Recover this round's selection from the observation pattern.
		selMask := uint64(0)
		for _, c := range observed {
			if c.t == t {
				selMask |= uint64(c.col)
			}
		}
		members := maskMembers(selMask, mParties)
		k := len(members)
		if k == 0 {
			continue
		}
		sub := shapley.Exact(k, func(local uint64) float64 {
			var global uint64
			for b, party := range members {
				if local&(1<<uint(b)) != 0 {
					global |= 1 << uint(party)
				}
			}
			return fullUtil[t][global]
		})
		for b, party := range members {
			report.FedSV[party] += sub[b]
		}
	}

	// ComFedSV transplant: complete the T×(2^M−1) coalition-utility matrix
	// from the observed cells, then take the Shapley value of the summed
	// completed utilities.
	entries := make([]mc.Entry, len(observed))
	for i, c := range observed {
		entries[i] = mc.Entry{Row: c.t, Col: c.col - 1, Val: c.val}
	}
	res, err := mc.Complete(context.Background(), entries, cfg.Rounds, cols-1, mc.DefaultConfig(cfg.Rank))
	if err != nil {
		return nil, fmt.Errorf("vfl: completing coalition utilities: %w", err)
	}
	summed := make([]float64, cols)
	for mask := 1; mask < cols; mask++ {
		var s float64
		for t := 0; t < cfg.Rounds; t++ {
			s += res.Predict(t, mask-1)
		}
		summed[mask] = s
	}
	report.ComFedSV = shapley.Exact(mParties, func(mask uint64) float64 { return summed[mask] })
	return report, nil
}

// GroundTruthShapley computes the exact Shapley value of the summed true
// coalition utilities; exported for tests and the example.
func GroundTruthShapley(p *Problem, cfg Config) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	mParties := len(p.Parties)
	g := rng.New(cfg.Seed)
	model := NewModel(p, g.Split(1))
	cols := 1 << uint(mParties)
	summed := make([]float64, cols)
	active := make([]bool, mParties)
	for t := 0; t < cfg.Rounds; t++ {
		before := model.Clone()
		model.Step(p, cfg.LearningRate)
		for mask := uint64(1); mask < uint64(cols); mask++ {
			for i := 0; i < mParties; i++ {
				active[i] = mask&(1<<uint(i)) != 0
			}
			summed[mask] += before.Loss(p, active) - model.Loss(p, active)
		}
	}
	return shapley.Exact(mParties, func(mask uint64) float64 { return summed[mask] }), nil
}

func maskMembers(mask uint64, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// Package mc implements factorization-based low-rank matrix completion:
//
//	minimize_{W,H}  Σ_{(t,S) observed} (U_{t,S} − w_tᵀ h_S)² + λ(‖W‖²_F + ‖H‖²_F)
//
// the problem (9)/(13) the paper solves to complete the utility matrix. The
// paper uses LIBPMF; this package provides an equivalent solver from
// scratch with two backends: alternating least squares (the default —
// deterministic, each factor row is a small ridge regression solved by
// Cholesky) and stochastic gradient descent (LIBPMF-style updates).
//
// ALS groups the factor rows of each side once per solve by ordered
// observation pattern: the exact sequence of opposite-factor indices in
// observation order. Rows that share a pattern share their ridge system's
// Gram matrix bit for bit, so each half-sweep factors one Gram matrix per
// pattern and then solves every row's right-hand side against its
// pattern's factor. In a Monte-Carlo utility matrix almost every column is
// observed only in the full-participation round, so a few dozen patterns
// cover thousands of columns. The result is bit-identical to solving every
// row on its own, and a steady-state half-sweep on one worker allocates
// nothing.
package mc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"comfedsv/internal/mat"
	"comfedsv/internal/rng"
)

// Entry is one observed matrix cell.
type Entry struct {
	Row, Col int
	Val      float64
}

// Solver selects the optimization backend.
type Solver int

const (
	// ALS alternates exact ridge solves for the rows of W and H.
	ALS Solver = iota
	// SGD performs stochastic gradient passes over the observations.
	SGD
)

// String returns the solver name.
func (s Solver) String() string {
	switch s {
	case ALS:
		return "als"
	case SGD:
		return "sgd"
	default:
		return fmt.Sprintf("solver(%d)", int(s))
	}
}

// Config controls a completion run.
type Config struct {
	// Rank is the factorization rank r (the paper sweeps r in Fig. 3 and
	// bounds the useful range via Propositions 1–2).
	Rank int
	// Lambda is the L2 regularization weight λ.
	Lambda float64
	// MaxIter bounds the number of outer iterations (ALS sweeps or SGD epochs).
	MaxIter int
	// Tol stops early when the relative objective decrease falls below it.
	Tol float64
	// Solver selects ALS (default) or SGD.
	Solver Solver
	// WeightedReg scales the regularization of each factor row by its
	// number of observations (the ALS-WR scheme of Zhou et al.). This keeps
	// the effective shrinkage uniform when the observation pattern is very
	// skewed — exactly the situation of the utility matrix, where the
	// Everyone-Being-Heard round observes every column once but later
	// rounds observe only a few columns.
	WeightedReg bool
	// LearningRate is the SGD step size (ignored by ALS).
	LearningRate float64
	// Restarts is the number of random initializations tried; the fit with
	// the lowest objective wins. ALS is non-convex and an occasional
	// initialization lands in a poor local minimum; a handful of restarts
	// makes completion robust. Values below 1 mean 1.
	Restarts int
	// Seed drives factor initialization (and SGD order).
	Seed int64
	// Workers bounds the number of goroutines the solver may use; 0 means
	// GOMAXPROCS, and larger values are capped at GOMAXPROCS, since extra
	// goroutines on CPU-bound work only add scheduling and scratch
	// allocations. ALS parallelizes across restarts and, within a
	// half-sweep, across patterns (factorization) and factor rows (solves)
	// — each reads only the fixed opposite factor and writes its own
	// storage — so the result is bit-identical for every worker count.
	// SGD is inherently sequential and ignores Workers.
	Workers int
	// Warm, if non-nil, warm-starts the first attempt from prior factors —
	// typically the previous wave's fit in an adaptive valuation, or a
	// previous job's fit over the same run. The warm factors are copied,
	// never mutated; rows beyond the warm factors' shape (a problem that
	// grew new rows or columns) are drawn from the seeded RNG exactly as a
	// cold start draws them, and a rank mismatch falls back to a fully cold
	// first attempt. Remaining restarts stay cold, so a poor warm basin can
	// still lose to a fresh initialization. Warm-starting is deterministic:
	// the result is a pure function of the observations, the config, and
	// the warm factors.
	Warm *Warm
}

// Warm holds initial factors for a warm-started completion solve.
type Warm struct {
	// W is rows×rank, H is cols×rank — the shapes of a prior Result's
	// factors for the same (or a smaller) problem at the same rank.
	W, H *mat.Dense
}

// DefaultConfig returns the configuration used across the experiments.
func DefaultConfig(rank int) Config {
	return Config{
		Rank:         rank,
		Lambda:       0.01,
		MaxIter:      60,
		Tol:          1e-7,
		Solver:       ALS,
		WeightedReg:  true,
		LearningRate: 0.02,
		Restarts:     3,
		Seed:         7,
	}
}

// Result holds the fitted factors.
type Result struct {
	// W is rows×rank, H is cols×rank; the completed matrix is W Hᵀ.
	W, H *mat.Dense
	// Objective is the final value of the regularized objective.
	Objective float64
	// Iterations is the number of outer iterations performed.
	Iterations int
	// TrainRMSE is the root-mean-squared error on the observed entries.
	TrainRMSE float64
	// Patterns is the number of distinct ordered observation patterns
	// among the observed columns: the Cholesky factorizations one ALS
	// column half-sweep performs. 0 under SGD.
	Patterns int
	// Restart is the index of the winning attempt; attempt 0 is the
	// warm-started one when Config.Warm is set.
	Restart int
}

// Predict returns the completed value of cell (row, col).
func (r *Result) Predict(row, col int) float64 {
	return mat.Dot(r.W.Row(row), r.H.Row(col))
}

// Completed materializes the full completed matrix W Hᵀ.
func (r *Result) Completed() *mat.Dense {
	return mat.MulT(r.W, r.H)
}

// Complete fits a rank-cfg.Rank factorization of a rows×cols matrix from
// the observed entries, keeping the best of cfg.Restarts random
// initializations. Restarts run concurrently up to cfg.Workers; the winner
// (lowest objective, earliest attempt on ties) is the same one the serial
// loop would pick, so results do not depend on the worker count. The solve
// checks ctx once per ALS half-sweep (or SGD epoch) and returns ctx.Err()
// once it is cancelled; a solve that completes is unaffected by ctx.
func Complete(ctx context.Context, obs []Entry, rows, cols int, cfg Config) (*Result, error) {
	if err := validate(obs, rows, cols, cfg); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var prob *alsProblem
	if cfg.Solver == ALS {
		prob = &alsProblem{rows: newALSSide(obs, rows, true), cols: newALSSide(obs, cols, false)}
	}
	restarts := cfg.Restarts
	if restarts < 1 {
		restarts = 1
	}
	workers := runtime.GOMAXPROCS(0)
	if cfg.Workers > 0 {
		workers = min(cfg.Workers, workers)
	}
	conc := restarts
	if conc > workers {
		conc = workers
	}
	// Divide the worker budget across concurrent restarts so total
	// goroutine pressure stays at cfg.Workers.
	inner := workers / conc
	if inner < 1 {
		inner = 1
	}

	// Only the first attempt is warm-started; later restarts stay cold so
	// the restart mechanism keeps its job of escaping a poor basin.
	warmFor := func(attempt int) *Warm {
		if attempt == 0 {
			return cfg.Warm
		}
		return nil
	}
	results := make([]*Result, restarts)
	errs := make([]error, restarts)
	if conc <= 1 {
		for attempt := 0; attempt < restarts; attempt++ {
			results[attempt], errs[attempt] = completeOnce(ctx, prob, obs, rows, cols, cfg, attempt, workers, warmFor(attempt))
		}
	} else {
		sem := make(chan struct{}, conc)
		var wg sync.WaitGroup
		for attempt := 0; attempt < restarts; attempt++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(attempt int) {
				defer wg.Done()
				defer func() { <-sem }()
				results[attempt], errs[attempt] = completeOnce(ctx, prob, obs, rows, cols, cfg, attempt, inner, warmFor(attempt))
			}(attempt)
		}
		wg.Wait()
	}

	var best *Result
	for attempt := 0; attempt < restarts; attempt++ {
		if errs[attempt] != nil {
			return nil, errs[attempt]
		}
		if best == nil || results[attempt].Objective < best.Objective {
			best = results[attempt]
			best.Restart = attempt
		}
	}
	return best, nil
}

// completeOnce runs one attempt, seeded by cfg.Seed+attempt. prob is the
// ALS grouping of obs (nil under SGD).
func completeOnce(ctx context.Context, prob *alsProblem, obs []Entry, rows, cols int, cfg Config, attempt, workers int, warm *Warm) (*Result, error) {
	g := rng.New(cfg.Seed + int64(attempt))
	scale := 1 / math.Sqrt(float64(cfg.Rank))
	if warm != nil && (warm.W == nil || warm.H == nil || warm.W.Cols() != cfg.Rank || warm.H.Cols() != cfg.Rank) {
		warm = nil // rank mismatch: the warm factors cannot seed this problem
	}
	var w, h *mat.Dense
	if warm != nil {
		w = warmFactor(rows, cfg.Rank, scale, g, warm.W)
		h = warmFactor(cols, cfg.Rank, scale, g, warm.H)
	} else {
		w = randomFactor(rows, cfg.Rank, scale, g)
		h = randomFactor(cols, cfg.Rank, scale, g)
	}

	switch cfg.Solver {
	case ALS:
		return completeALS(ctx, prob, obs, w, h, cfg, workers)
	case SGD:
		return completeSGD(ctx, obs, w, h, cfg, g)
	default:
		return nil, fmt.Errorf("mc: unknown solver %v", cfg.Solver)
	}
}

func validate(obs []Entry, rows, cols int, cfg Config) error {
	if rows <= 0 || cols <= 0 {
		return fmt.Errorf("mc: non-positive shape %dx%d", rows, cols)
	}
	if cfg.Rank <= 0 {
		return fmt.Errorf("mc: rank must be positive, got %d", cfg.Rank)
	}
	if cfg.Lambda <= 0 {
		return fmt.Errorf("mc: lambda must be positive for a well-posed problem, got %v", cfg.Lambda)
	}
	if cfg.MaxIter <= 0 {
		return fmt.Errorf("mc: max iterations must be positive, got %d", cfg.MaxIter)
	}
	if len(obs) == 0 {
		return errors.New("mc: no observations")
	}
	for _, e := range obs {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return fmt.Errorf("mc: observation (%d,%d) outside %dx%d", e.Row, e.Col, rows, cols)
		}
	}
	return nil
}

func randomFactor(n, r int, scale float64, g *rng.RNG) *mat.Dense {
	m := mat.NewDense(n, r)
	d := m.Data()
	for i := range d {
		d[i] = g.Normal(0, scale)
	}
	return m
}

// warmFactor builds an n×r factor seeded from prior factors: overlapping
// rows are copied (the warm matrix is never aliased — ALS mutates its
// factors in place), rows beyond the warm shape are drawn from g like a
// cold start's.
func warmFactor(n, r int, scale float64, g *rng.RNG, warm *mat.Dense) *mat.Dense {
	m := mat.NewDense(n, r)
	copyRows := warm.Rows()
	if copyRows > n {
		copyRows = n
	}
	copy(m.Data()[:copyRows*r], warm.Data()[:copyRows*r])
	d := m.Data()[copyRows*r:]
	for i := range d {
		d[i] = g.Normal(0, scale)
	}
	return m
}

// objective returns the full regularized objective and the observed RMSE.
func objective(obs []Entry, w, h *mat.Dense, lambda float64) (obj, rmse float64) {
	var sse float64
	for _, e := range obs {
		d := e.Val - mat.Dot(w.Row(e.Row), h.Row(e.Col))
		sse += d * d
	}
	fw := w.FrobeniusNorm()
	fh := h.FrobeniusNorm()
	return sse + lambda*(fw*fw+fh*fh), math.Sqrt(sse / float64(len(obs)))
}

// alsSide is one factor's view of the observations for ALS, built once
// per Complete call and shared read-only by every restart: each target
// row's observations in compressed-row form, and the ordered observation
// pattern each row shares with others. Rows sharing a pattern sum their
// Gram matrix over the same opposite rows in the same order, so one
// Cholesky factorization serves them all bit for bit.
type alsSide struct {
	name  string    // "row" or "column", names the side in errors
	start []int     // target i's observations are opp/val[start[i]:start[i+1]]
	opp   []int     // opposite-factor index of each observation
	val   []float64 // observed value of each observation
	pat   []int     // pat[i] is target i's pattern, -1 if it has no observations
	rep   []int     // rep[p] is the lowest target with pattern p
}

func newALSSide(obs []Entry, n int, rowSide bool) *alsSide {
	sd := &alsSide{
		name:  "column",
		start: make([]int, n+1),
		opp:   make([]int, len(obs)),
		val:   make([]float64, len(obs)),
		pat:   make([]int, n),
	}
	if rowSide {
		sd.name = "row"
	}
	split := func(e Entry) (target, opposite int) {
		if rowSide {
			return e.Row, e.Col
		}
		return e.Col, e.Row
	}
	for _, e := range obs {
		t, _ := split(e)
		sd.start[t+1]++
	}
	for i := 0; i < n; i++ {
		sd.start[i+1] += sd.start[i]
	}
	next := append([]int(nil), sd.start[:n]...)
	for _, e := range obs {
		t, o := split(e)
		sd.opp[next[t]], sd.val[next[t]] = o, e.Val
		next[t]++
	}
	ids := make(map[string]int)
	var key []byte
	for i := 0; i < n; i++ {
		opp := sd.opp[sd.start[i]:sd.start[i+1]]
		if len(opp) == 0 {
			sd.pat[i] = -1
			continue
		}
		key = key[:0]
		for _, o := range opp {
			key = binary.AppendUvarint(key, uint64(o))
		}
		p, ok := ids[string(key)]
		if !ok {
			p = len(sd.rep)
			ids[string(key)] = p
			sd.rep = append(sd.rep, i)
		}
		sd.pat[i] = p
	}
	return sd
}

// alsProblem is the observations grouped for ALS, one alsSide per factor.
type alsProblem struct{ rows, cols *alsSide }

// alsWork is one ALS attempt's working storage: a Cholesky factor per
// pattern (reused by both sides — a half-sweep consumes its factors before
// the next one overwrites them) and per-worker Gram, right-hand-side, and
// substitution buffers. A half-sweep allocates nothing per pattern or per
// row, and nothing at all on one worker.
type alsWork struct {
	cfg     Config
	workers int
	chol    []*mat.Dense
	scratch []alsScratch

	// The half-sweep in progress.
	side             *alsSide
	opposite, target *mat.Dense
}

type alsScratch struct {
	gram   *mat.Dense
	rhs, y []float64
}

func newALSWork(p *alsProblem, cfg Config, workers int) *alsWork {
	r := cfg.Rank
	a := &alsWork{
		cfg:     cfg,
		workers: workers,
		chol:    make([]*mat.Dense, max(len(p.rows.rep), len(p.cols.rep))),
		scratch: make([]alsScratch, workers),
	}
	for i := range a.chol {
		a.chol[i] = mat.NewDense(r, r)
	}
	for i := range a.scratch {
		a.scratch[i] = alsScratch{gram: mat.NewDense(r, r), rhs: make([]float64, r), y: make([]float64, r)}
	}
	return a
}

func completeALS(ctx context.Context, prob *alsProblem, obs []Entry, w, h *mat.Dense, cfg Config, workers int) (*Result, error) {
	a := newALSWork(prob, cfg, workers)
	prev := math.Inf(1)
	iters := 0
	for it := 0; it < cfg.MaxIter; it++ {
		iters = it + 1
		// Update every row of W against fixed H, then every row of H
		// against fixed W.
		if err := a.halfSweep(ctx, prob.rows, h, w); err != nil {
			return nil, err
		}
		if err := a.halfSweep(ctx, prob.cols, w, h); err != nil {
			return nil, err
		}
		obj, _ := objective(obs, w, h, cfg.Lambda)
		if !math.IsInf(prev, 1) && prev-obj <= cfg.Tol*math.Max(1, math.Abs(prev)) {
			prev = obj
			break
		}
		prev = obj
	}
	obj, rmse := objective(obs, w, h, cfg.Lambda)
	return &Result{W: w, H: h, Objective: obj, Iterations: iters, TrainRMSE: rmse, Patterns: len(prob.cols.rep)}, nil
}

// halfSweep re-solves the ridge sub-problem of every row of target against
// the fixed opposite factor, after checking ctx. It first factors each
// pattern's Gram matrix, then solves each target row's right-hand side
// against its pattern's factor. Each item of either phase reads only the
// fixed opposite factor and writes its own storage (a pattern's factor, a
// target row), so items run on any worker in any order without changing a
// bit of the result.
func (a *alsWork) halfSweep(ctx context.Context, sd *alsSide, opposite, target *mat.Dense) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	a.side, a.opposite, a.target = sd, opposite, target
	if err := a.run((*alsWork).factor, len(sd.rep)); err != nil {
		return err
	}
	return a.run((*alsWork).solve, len(sd.pat))
}

// run calls step(a, wk, i) for every item i in [0, n) over the worker
// pool, wk naming the calling worker's scratch, and returns the error of
// the lowest failing item, so the reported failure does not depend on
// scheduling. step is a method expression, so one worker allocates
// nothing.
func (a *alsWork) run(step func(a *alsWork, wk, i int) error, n int) error {
	workers := min(a.workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := step(a, 0, i); err != nil {
				return err
			}
		}
		return nil
	}
	type itemErr struct {
		item int
		err  error
	}
	errs := make([]itemErr, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := step(a, wk, i); err != nil {
					errs[wk] = itemErr{item: i, err: err}
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	first := itemErr{item: n}
	for _, e := range errs {
		if e.err != nil && e.item < first.item {
			first = e
		}
	}
	return first.err
}

// factor assembles pattern p's ridge Gram matrix Σ f fᵀ + λ_eff I over the
// opposite-factor rows the pattern observes, in observation order, and
// factors it. Only the lower triangle is assembled: it is all CholeskyInto
// reads.
func (a *alsWork) factor(wk, p int) error {
	sd, r := a.side, a.cfg.Rank
	rep := sd.rep[p]
	opp := sd.opp[sd.start[rep]:sd.start[rep+1]]
	gram := a.scratch[wk].gram
	g := gram.Data()
	clear(g)
	for _, o := range opp {
		f := a.opposite.Row(o)
		for i := 0; i < r; i++ {
			fi := f[i]
			gi := g[i*r : i*r+i+1]
			for j := range gi {
				gi[j] += fi * f[j]
			}
		}
	}
	lambda := effLambda(a.cfg, len(opp))
	for i := 0; i < r; i++ {
		g[i*r+i] += lambda
	}
	if err := mat.CholeskyInto(a.chol[p], gram); err != nil {
		return fmt.Errorf("mc: ridge sub-problem for %s %d (%d observations): %w", sd.name, rep, len(opp), err)
	}
	return nil
}

// solve accumulates target row i's right-hand side Σ f·v in observation
// order and solves it against its pattern's factor. A row with no
// observations is zeroed (the regularizer's minimizer). It never fails.
func (a *alsWork) solve(wk, i int) error {
	sd := a.side
	dst := a.target.Row(i)
	p := sd.pat[i]
	if p < 0 {
		clear(dst)
		return nil
	}
	sc := &a.scratch[wk]
	rhs := sc.rhs
	clear(rhs)
	for k := sd.start[i]; k < sd.start[i+1]; k++ {
		f := a.opposite.Row(sd.opp[k])
		v := sd.val[k]
		for j := range rhs {
			rhs[j] += f[j] * v
		}
	}
	mat.CholeskySolveInto(a.chol[p], rhs, dst, sc.y)
	return nil
}

// effLambda returns the regularization weight for a factor row with nobs
// observations: constant under plain ALS, nobs-proportional under ALS-WR.
func effLambda(cfg Config, nobs int) float64 {
	if cfg.WeightedReg && nobs > 0 {
		return cfg.Lambda * float64(nobs)
	}
	return cfg.Lambda
}

func completeSGD(ctx context.Context, obs []Entry, w, h *mat.Dense, cfg Config, g *rng.RNG) (*Result, error) {
	order := make([]int, len(obs))
	for i := range order {
		order[i] = i
	}
	// Per-entry regularization: λ scaled so the implicit objective matches
	// the ALS objective in expectation over an epoch.
	lam := cfg.Lambda / float64(len(obs))
	prev := math.Inf(1)
	iters := 0
	r := cfg.Rank
	for epoch := 0; epoch < cfg.MaxIter; epoch++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		iters = epoch + 1
		lr := cfg.LearningRate / (1 + 0.01*float64(epoch))
		g.Shuffle(order)
		for _, idx := range order {
			e := obs[idx]
			wr := w.Row(e.Row)
			hr := h.Row(e.Col)
			err := mat.Dot(wr, hr) - e.Val
			for k := 0; k < r; k++ {
				gw := err*hr[k] + lam*wr[k]
				gh := err*wr[k] + lam*hr[k]
				wr[k] -= lr * gw
				hr[k] -= lr * gh
			}
		}
		obj, _ := objective(obs, w, h, cfg.Lambda)
		if prev-obj <= cfg.Tol*math.Max(1, math.Abs(prev)) && epoch > 5 {
			prev = obj
			break
		}
		prev = obj
	}
	obj, rmse := objective(obs, w, h, cfg.Lambda)
	return &Result{W: w, H: h, Objective: obj, Iterations: iters, TrainRMSE: rmse}, nil
}

// RelativeError returns ‖U − WHᵀ‖_F / ‖U‖_F against a fully known matrix u
// (the quantity plotted in Fig. 3).
func RelativeError(u *mat.Dense, res *Result, colOfMask func(col int) (int, bool)) float64 {
	rows, cols := u.Dims()
	var num, den float64
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := u.At(i, j)
			den += v * v
			var pred float64
			if fc, ok := colOfMask(j); ok {
				pred = res.Predict(i, fc)
			}
			d := v - pred
			num += d * d
		}
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num) / math.Sqrt(den)
}

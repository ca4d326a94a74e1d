package mc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"comfedsv/internal/mat"
	"comfedsv/internal/rng"
)

// oracleComplete is the per-row ALS solver that pattern-grouped
// factorization replaced, kept as a bitwise oracle. Every attempt runs
// serially and solves each factor row's ridge sub-problem on its own:
// assemble that row's Gram matrix and right-hand side, factor, substitute.
// Initialization, the stopping rule, and the restart choice are
// Complete's.
func oracleComplete(t *testing.T, obs []Entry, rows, cols int, cfg Config) *Result {
	t.Helper()
	byRow := make([][]Entry, rows)
	byCol := make([][]Entry, cols)
	for _, e := range obs {
		byRow[e.Row] = append(byRow[e.Row], e)
		byCol[e.Col] = append(byCol[e.Col], e)
	}
	var best *Result
	for attempt := 0; attempt < max(1, cfg.Restarts); attempt++ {
		g := rng.New(cfg.Seed + int64(attempt))
		scale := 1 / math.Sqrt(float64(cfg.Rank))
		var w, h *mat.Dense
		if warm := cfg.Warm; attempt == 0 && warm != nil && warm.W.Cols() == cfg.Rank && warm.H.Cols() == cfg.Rank {
			w = warmFactor(rows, cfg.Rank, scale, g, warm.W)
			h = warmFactor(cols, cfg.Rank, scale, g, warm.H)
		} else {
			w = randomFactor(rows, cfg.Rank, scale, g)
			h = randomFactor(cols, cfg.Rank, scale, g)
		}
		prev := math.Inf(1)
		iters := 0
		for it := 0; it < cfg.MaxIter; it++ {
			iters = it + 1
			oracleSweep(t, byRow, h, w, cfg, true)
			oracleSweep(t, byCol, w, h, cfg, false)
			obj, _ := objective(obs, w, h, cfg.Lambda)
			if !math.IsInf(prev, 1) && prev-obj <= cfg.Tol*math.Max(1, math.Abs(prev)) {
				break
			}
			prev = obj
		}
		obj, rmse := objective(obs, w, h, cfg.Lambda)
		res := &Result{W: w, H: h, Objective: obj, Iterations: iters, TrainRMSE: rmse, Restart: attempt}
		if best == nil || res.Objective < best.Objective {
			best = res
		}
	}
	return best
}

// oracleSweep solves every row of target against the fixed opposite
// factor, one ridge system per row; groups[i] holds row i's observations.
func oracleSweep(t *testing.T, groups [][]Entry, opposite, target *mat.Dense, cfg Config, rowSide bool) {
	t.Helper()
	r := cfg.Rank
	for i, entries := range groups {
		dst := target.Row(i)
		if len(entries) == 0 {
			clear(dst)
			continue
		}
		gram := mat.NewDense(r, r)
		rhs := make([]float64, r)
		for _, e := range entries {
			f := opposite.Row(e.Row)
			if rowSide {
				f = opposite.Row(e.Col)
			}
			for a := 0; a < r; a++ {
				rhs[a] += f[a] * e.Val
				for b := 0; b < r; b++ {
					gram.Add(a, b, f[a]*f[b])
				}
			}
		}
		for a := 0; a < r; a++ {
			gram.Add(a, a, effLambda(cfg, len(entries)))
		}
		l := mat.NewDense(r, r)
		if err := mat.CholeskyInto(l, gram); err != nil {
			t.Fatalf("oracle: row %d: %v", i, err)
		}
		mat.CholeskySolveInto(l, rhs, dst, make([]float64, r))
	}
}

// utilityFixture is a small utility-shaped matrix: row 0 observes every
// column but the last, later rows observe a few small-coalition columns,
// the last column is never observed, and columns 1 and 2 are observed in
// the same rows {0, 1, 2} in different orders.
func utilityFixture() (obs []Entry, rows, cols int) {
	rows, cols = 6, 40
	truth := lowRankTruth(rows, cols, 3, 51)
	g := rng.New(52)
	add := func(i, j int) { obs = append(obs, Entry{Row: i, Col: j, Val: truth.At(i, j)}) }
	for j := 0; j < cols-1; j++ {
		add(0, j)
	}
	for i := 1; i < rows; i++ {
		for j := 3; j < 10; j++ {
			if g.Float64() < 0.3 {
				add(i, j)
			}
		}
	}
	add(2, 1)
	add(1, 1)
	add(1, 2)
	add(2, 2)
	return obs, rows, cols
}

// sameBits reports whether a and b hold bit-identical entries — stricter
// than mat.Equal(a, b, 0), which equates ±0 and passes NaNs.
func sameBits(a, b *mat.Dense) bool {
	if !mat.Equal(a, b, 0) {
		return false
	}
	for i, v := range a.Data() {
		if math.Float64bits(v) != math.Float64bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// TestCompleteMatchesPerRowOracle pins pattern-grouped factorization to
// the per-row solver bit for bit: factors, objective, iterations, RMSE,
// and the winning restart, at every worker count, cold and warm-started,
// under ALS-WR and plain ALS.
func TestCompleteMatchesPerRowOracle(t *testing.T) {
	uniform := sample(lowRankTruth(12, 25, 3, 21), 0.4, 22)
	utilObs, utilRows, utilCols := utilityFixture()
	fixtures := []struct {
		name       string
		obs        []Entry
		rows, cols int
	}{
		{"uniform", uniform, 12, 25},
		{"utility", utilObs, utilRows, utilCols},
	}
	for _, fx := range fixtures {
		for _, weighted := range []bool{true, false} {
			cfg := DefaultConfig(3)
			cfg.WeightedReg = weighted
			prior := oracleComplete(t, fx.obs[:len(fx.obs)/2], fx.rows, fx.cols, cfg)
			warm := cfg
			warm.Warm = &Warm{W: prior.W, H: prior.H}
			for _, start := range []struct {
				name string
				cfg  Config
			}{{"cold", cfg}, {"warm", warm}} {
				want := oracleComplete(t, fx.obs, fx.rows, fx.cols, start.cfg)
				for _, workers := range []int{1, 2, 3, 8} {
					t.Run(fmt.Sprintf("%s/weighted=%v/%s/workers-%d", fx.name, weighted, start.name, workers), func(t *testing.T) {
						c := start.cfg
						c.Workers = workers
						got, err := Complete(context.Background(), fx.obs, fx.rows, fx.cols, c)
						if err != nil {
							t.Fatal(err)
						}
						if !sameBits(want.W, got.W) || !sameBits(want.H, got.H) {
							t.Fatal("factors differ from the per-row oracle")
						}
						if got.Objective != want.Objective || got.Iterations != want.Iterations ||
							got.TrainRMSE != want.TrainRMSE || got.Restart != want.Restart {
							t.Fatalf("result differs from the per-row oracle: objective %v/%v, iterations %d/%d, rmse %v/%v, restart %d/%d",
								got.Objective, want.Objective, got.Iterations, want.Iterations,
								got.TrainRMSE, want.TrainRMSE, got.Restart, want.Restart)
						}
					})
				}
			}
		}
	}
}

// TestPatternsAreOrdered: columns with the same row set in different
// observation orders are distinct patterns (their Gram matrices sum in
// different orders), and the never-observed column has none.
func TestPatternsAreOrdered(t *testing.T) {
	obs, _, cols := utilityFixture()
	sd := newALSSide(obs, cols, false)
	if sd.pat[1] == sd.pat[2] {
		t.Fatal("columns 1 and 2 share a pattern despite different observation orders")
	}
	if sd.pat[cols-1] != -1 {
		t.Fatalf("unobserved column has pattern %d, want -1", sd.pat[cols-1])
	}
	if sd.pat[0] != sd.pat[cols-2] || sd.rep[sd.pat[cols-2]] != 0 {
		t.Fatal("columns observed only in row 0 do not share column 0's pattern")
	}
}

// TestPatternsFarFewerThanColumns: on a utility-shaped matrix the column
// half-sweep factors a few dozen patterns, not thousands of columns.
func TestPatternsFarFewerThanColumns(t *testing.T) {
	const rows, cols = 10, 4000
	cfg := DefaultConfig(5)
	cfg.MaxIter = 2
	res, err := Complete(context.Background(), UtilityShaped(rows, cols, 5, 1), rows, cols, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Patterns < 2 || res.Patterns*50 > cols {
		t.Fatalf("Patterns = %d over %d columns, want a few dozen", res.Patterns, cols)
	}
}

// TestRidgeFailureNamesTarget: a Cholesky failure in the factor phase
// names the side, the pattern's lowest target, and its observation count,
// whatever the worker count, and still wraps mat.ErrNotPositiveDefinite.
func TestRidgeFailureNamesTarget(t *testing.T) {
	var obs []Entry
	for j := 0; j < 20; j++ {
		obs = append(obs, Entry{Row: 0, Col: j, Val: float64(j%5) - 2})
	}
	// A NaN utility poisons row 1's factor, so the Gram matrix of column
	// 17 (observed in rows 0, 1, 2) is not positive definite.
	obs = append(obs, Entry{Row: 1, Col: 17, Val: math.NaN()}, Entry{Row: 2, Col: 17, Val: 1})
	const want = "mc: ridge sub-problem for column 17 (3 observations): mat: matrix is not positive definite"
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig(2)
		cfg.Workers = workers
		_, err := Complete(context.Background(), obs, 3, 20, cfg)
		if err == nil || err.Error() != want {
			t.Fatalf("workers=%d: err = %v, want %q", workers, err, want)
		}
		if !errors.Is(err, mat.ErrNotPositiveDefinite) {
			t.Fatalf("workers=%d: %v does not wrap mat.ErrNotPositiveDefinite", workers, err)
		}
	}
}

// TestCompleteCancellation: a pre-cancelled and a mid-solve-cancelled
// Complete both return context.Canceled promptly, and a live but never
// cancelled context changes no bit of a solve.
func TestCompleteCancellation(t *testing.T) {
	const rows, cols = 10, 4000
	obs := UtilityShaped(rows, cols, 5, 2)
	cfg := DefaultConfig(5)
	cfg.MaxIter = 1 << 30 // would run for hours uncancelled
	cfg.Tol = 0

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := Complete(ctx, obs, rows, cols, cfg); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("pre-cancelled: res %v, err %v; want context.Canceled", res, err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Complete(ctx, obs, rows, cols, cfg)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-solve: err %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("mid-solve cancellation was not honoured within 10s")
	}

	small := sample(lowRankTruth(12, 25, 3, 21), 0.4, 22)
	live, stop := context.WithCancel(context.Background())
	defer stop()
	a, err := Complete(live, small, 12, 25, DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Complete(context.Background(), small, 12, 25, DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(a.W, b.W) || !sameBits(a.H, b.H) || a.Objective != b.Objective {
		t.Fatal("a live context changed the solve")
	}
}

// TestHalfSweepZeroAlloc pins the hot-loop contract: on one worker a
// steady-state half-sweep of either side allocates nothing.
func TestHalfSweepZeroAlloc(t *testing.T) {
	const rows, cols = 10, 400
	obs := UtilityShaped(rows, cols, 5, 3)
	prob := &alsProblem{rows: newALSSide(obs, rows, true), cols: newALSSide(obs, cols, false)}
	g := rng.New(1)
	w, h := randomFactor(rows, 5, 1, g), randomFactor(cols, 5, 1, g)
	a := newALSWork(prob, DefaultConfig(5), 1)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(20, func() {
		if err := a.halfSweep(ctx, prob.rows, h, w); err != nil {
			t.Fatal(err)
		}
		if err := a.halfSweep(ctx, prob.cols, w, h); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a sweep allocated %v times, want 0", allocs)
	}
}

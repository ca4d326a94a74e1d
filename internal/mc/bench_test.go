package mc

import (
	"context"
	"fmt"
	"testing"

	"comfedsv/internal/rng"
)

// synthEntries samples a density-fraction of a random rank-`rank` matrix,
// the observation pattern the completion solver sees in production.
func synthEntries(rows, cols, rank int, density float64, seed int64) []Entry {
	g := rng.New(seed)
	w := randomFactor(rows, rank, 1, g)
	h := randomFactor(cols, rank, 1, g)
	var out []Entry
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if g.Float64() < density {
				v := 0.0
				for k := 0; k < rank; k++ {
					v += w.Row(i)[k] * h.Row(j)[k]
				}
				out = append(out, Entry{Row: i, Col: j, Val: v})
			}
		}
	}
	return out
}

// BenchmarkComplete measures the ALS solver across worker counts on two
// fixtures: a uniform random 60×400 rank-5 matrix at 15% density (the
// seed ran it at ~131 ms/op and 751,971 allocs/op; see CHANGES.md PR 2),
// and a utility-shaped T=10 × 4,000-column rank-5 matrix whose row 0 is
// fully observed, where a few dozen observation patterns cover every
// column. Run with -benchmem; the worker sweep demonstrates multicore
// scaling on machines with spare cores.
func BenchmarkComplete(b *testing.B) {
	fixtures := []struct {
		name       string
		obs        []Entry
		rows, cols int
	}{
		{"uniform-60x400", synthEntries(60, 400, 5, 0.15, 42), 60, 400},
		{"utility-10x4000", UtilityShaped(10, 4000, 5, 42), 10, 4000},
	}
	for _, fx := range fixtures {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers-%d", fx.name, workers), func(b *testing.B) {
				cfg := DefaultConfig(5)
				cfg.Workers = workers
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Complete(context.Background(), fx.obs, fx.rows, fx.cols, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkHalfSweep isolates one pattern-grouped column half-sweep of the
// utility-shaped fixture on one worker — factor each pattern's Gram
// matrix, then solve every column — the innermost loop of every ALS
// iteration. It allocates nothing.
func BenchmarkHalfSweep(b *testing.B) {
	const rows, cols = 10, 4000
	obs := UtilityShaped(rows, cols, 5, 42)
	prob := &alsProblem{rows: newALSSide(obs, rows, true), cols: newALSSide(obs, cols, false)}
	g := rng.New(7)
	w, h := randomFactor(rows, 5, 1, g), randomFactor(cols, 5, 1, g)
	a := newALSWork(prob, DefaultConfig(5), 1)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.halfSweep(ctx, prob.cols, w, h); err != nil {
			b.Fatal(err)
		}
	}
}

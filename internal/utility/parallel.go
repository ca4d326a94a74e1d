package utility

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"comfedsv/internal/fl"
	"comfedsv/internal/mat"
)

// forEachIndex runs fn(i) for every i in [0, n) across at most workers
// goroutines (≤ 0 means GOMAXPROCS, and the pool never exceeds n — the
// worker-clamp rule every fan-out in this package shares). Once ctx is
// cancelled no further indices are started; the caller decides whether
// that matters by checking ctx.Err afterwards. fn must be safe to call
// concurrently for distinct indices.
func forEachIndex(ctx context.Context, n, workers int, fn func(int)) {
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ParallelFullMatrix materializes the complete utility matrix like
// FullMatrix but distributes rounds across workers goroutines (0 means
// GOMAXPROCS). Cells are independent — the run is read-only and the models
// are pure functions of their parameters — so the result is bit-identical
// to the serial version.
func ParallelFullMatrix(run *fl.Run, workers int) *mat.Dense {
	n := run.NumClients()
	if n > 20 {
		panic(fmt.Sprintf("utility: full matrix for %d clients is infeasible", n))
	}
	t := len(run.Rounds)
	cols := 1 << uint(n)
	u := mat.NewDense(t, cols)
	forEachIndex(context.Background(), t, workers, func(round int) {
		row := u.Row(round)
		members := make([]int, 0, n)
		for mask := uint64(1); mask < uint64(cols); mask++ {
			members = members[:0]
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) != 0 {
					members = append(members, i)
				}
			}
			row[mask] = run.Utility(round, members)
		}
	})
	return u
}

// Cell addresses one utility-matrix entry.
type Cell struct {
	Round  int
	Subset Set
}

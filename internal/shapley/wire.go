package shapley

import (
	"context"
	"fmt"

	"comfedsv/internal/utility"
)

// ObserveSlice evaluates the prefix cells of an arbitrary permutation
// slice [lo, hi) through the plan's source, without mutating the plan's
// shard state — the worker-side entry point of distributed observation.
// It returns every cell the slice touched, whether evaluated now or
// already memoized, as a stamped batch: the coordinator's replay of the
// shard then finds all of them regardless of what either side had
// cached. The slice need not align with the plan's own shard boundaries,
// so one worker-side plan serves every lease of a job regardless of how
// the coordinator cut its waves.
func (p *MonteCarloPlan) ObserveSlice(ctx context.Context, lo, hi int) (*utility.CellBatch, error) {
	if lo < 0 || hi > len(p.perms) || lo >= hi {
		return nil, fmt.Errorf("shapley: observation slice [%d,%d) out of [0,%d)", lo, hi, len(p.perms))
	}
	vals, err := p.observeRange(ctx, lo, hi)
	if err != nil {
		return nil, err
	}
	cells := make([]utility.Cell, 0, len(vals))
	vs := make([]float64, 0, len(vals))
	for k, v := range vals {
		cells = append(cells, utility.Cell{Round: k.round, Subset: p.store.ColumnSet(k.col)})
		vs = append(vs, v)
	}
	return utility.NewCellBatch(p.src.Run().NumClients(), cells, vs), nil
}

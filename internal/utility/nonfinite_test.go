package utility

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestNonFiniteUtilityFailsBatch pins the fail-early contract of every
// evaluation path: the first NaN or ±Inf utility surfaces as a
// *NonFiniteError naming its round and coalition instead of flowing on
// into the completion solve.
func TestNonFiniteUtilityFailsBatch(t *testing.T) {
	run := tinyRun(t, 4, 3, 2)
	// U_1(S) = TestLoss_1 − loss(S), so an infinite round loss makes every
	// round-1 cell +Inf.
	run.Rounds[1].TestLoss = math.Inf(1)
	cells := []Cell{
		{Round: 0, Subset: FromMembers(4, []int{0})},
		{Round: 1, Subset: FromMembers(4, []int{1, 3})},
		{Round: 1, Subset: FromMembers(4, []int{2})},
	}
	check := func(name string, err error, want string) {
		t.Helper()
		var nf *NonFiniteError
		if !errors.As(err, &nf) {
			t.Fatalf("%s: error %v, want *NonFiniteError", name, err)
		}
		if err.Error() != want {
			t.Fatalf("%s: error %q, want %q", name, err, want)
		}
	}
	const want = "utility: non-finite utility +Inf at round 1, coalition {1,3}"
	_, err := NewEvaluator(run).UtilityBatchCtx(context.Background(), cells, 1)
	check("evaluator", err, want)
	_, err = NewEvaluator(run).NewSession().UtilityBatchCtx(context.Background(), cells, 1)
	check("session", err, want)
	// Parallel batches stop too; which non-finite cell is named may vary.
	if _, err := NewEvaluator(run).UtilityBatchCtx(context.Background(), cells, 3); !errors.As(err, new(*NonFiniteError)) {
		t.Fatalf("parallel batch: error %v, want *NonFiniteError", err)
	}

	err = ObserveSelectedCtx(context.Background(), NewEvaluator(run), NewStore(3, 4))
	var nf *NonFiniteError
	if !errors.As(err, &nf) || nf.Round != 1 || !math.IsInf(nf.Value, 1) {
		t.Fatalf("ObserveSelectedCtx: error %v, want a round-1 *NonFiniteError", err)
	}
}

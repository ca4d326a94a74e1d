package shapley

import (
	"context"
	"testing"
)

// TestObserveSliceShipsWholeSlice pins the worker half of the wire: a
// slice walk over a fully warm evaluator evaluates nothing new, yet its
// batch still carries every cell the slice touched. A cold coordinator
// that absorbs the batches into a session replays every shard without a
// single evaluation, deriving the shard digests and the utility-call bill
// of an all-local run.
func TestObserveSliceShipsWholeSlice(t *testing.T) {
	ctx := context.Background()
	w := duplicatedEvaluator(t, 502)
	local, err := NewMonteCarloPlan(ctx, w.NewSession(), planConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < local.Shards(); shard++ {
		if err := local.ObserveShard(ctx, shard); err != nil {
			t.Fatal(err)
		}
	}
	localCalls := local.src.Calls()
	w.ExportNew()

	worker, err := NewMonteCarloPlan(ctx, w, planConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	coord := duplicatedEvaluator(t, 502)
	sess := coord.NewSession()
	for shard := 0; shard < worker.Shards(); shard++ {
		lo, hi, _ := worker.ShardSlice(shard)
		b, err := worker.ObserveSlice(ctx, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Cells) == 0 {
			t.Fatalf("shard %d: a warm slice walk shipped no cells", shard)
		}
		if err := sess.Absorb(b); err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
	}
	if exp := w.ExportNew(); exp != nil {
		t.Fatalf("the warm worker evaluated %d new cells", len(exp.Cells))
	}

	replay, err := NewMonteCarloPlan(ctx, sess, planConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < replay.Shards(); shard++ {
		if err := replay.ObserveShard(ctx, shard); err != nil {
			t.Fatal(err)
		}
		if got, want := replay.ShardDigest(shard), local.ShardDigest(shard); got != want {
			t.Fatalf("shard %d: replayed digest %s, local %s", shard, got, want)
		}
	}
	if coord.Calls() != 0 {
		t.Fatalf("the coordinator's replay evaluated %d cells, want 0", coord.Calls())
	}
	if sess.Calls() != localCalls {
		t.Fatalf("replay billed %d utility calls, the local run %d", sess.Calls(), localCalls)
	}
}

package shapley

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"comfedsv/internal/mc"
)

// planConfig is a small Monte-Carlo config exercised by every plan test.
func planConfig(shards int) MonteCarloConfig {
	cfg := DefaultMonteCarloConfig(6, 3, 51)
	cfg.Samples = 24
	cfg.Shards = shards
	return cfg
}

// TestMonteCarloShardCountInvariant pins the tentpole determinism
// guarantee at the shapley layer: the observation list, the completion,
// and the final values are identical for shard counts 1, 2, and 8.
func TestMonteCarloShardCountInvariant(t *testing.T) {
	e := duplicatedEvaluator(t, 500)
	base, err := MonteCarloCtx(context.Background(), e, planConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 8} {
		got, err := MonteCarloCtx(context.Background(), e, planConfig(shards))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !reflect.DeepEqual(got.Values, base.Values) {
			t.Fatalf("shards=%d values diverge:\n%v\nvs\n%v", shards, got.Values, base.Values)
		}
		if !reflect.DeepEqual(got.Store.Observations(), base.Store.Observations()) {
			t.Fatalf("shards=%d observation list diverges from serial order", shards)
		}
		if got.UnobservedColumns != base.UnobservedColumns {
			t.Fatalf("shards=%d unobserved columns %d, want %d", shards, got.UnobservedColumns, base.UnobservedColumns)
		}
	}
}

// TestMonteCarloPlanShardOrderInvariant runs the shards of one plan in
// reverse and concurrently: Advance must still record the serial order, so
// the result matches the plain pipeline byte for byte.
func TestMonteCarloPlanShardOrderInvariant(t *testing.T) {
	e := duplicatedEvaluator(t, 501)
	want, err := MonteCarloCtx(context.Background(), e, planConfig(1))
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	// Reverse order.
	p, err := NewMonteCarloPlan(ctx, e, planConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	for shard := p.Shards() - 1; shard >= 0; shard-- {
		if err := p.ObserveShard(ctx, shard); err != nil {
			t.Fatal(err)
		}
	}
	if more, err := p.Advance(ctx); err != nil || more != 0 {
		t.Fatalf("Advance = %d, %v; want one wave", more, err)
	}
	got, err := p.Extract(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Values, want.Values) {
		t.Fatal("reverse-order shard execution changed the values")
	}
	if !reflect.DeepEqual(got.Store.Observations(), want.Store.Observations()) {
		t.Fatal("reverse-order shard execution changed the observation list")
	}

	// Concurrent execution (meaningful under -race: shards share the
	// evaluator and read-only plan state).
	p2, err := NewMonteCarloPlan(ctx, e, planConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, p2.Shards())
	for shard := 0; shard < p2.Shards(); shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			errs[shard] = p2.ObserveShard(ctx, shard)
		}(shard)
	}
	wg.Wait()
	for shard, err := range errs {
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
	}
	if more, err := p2.Advance(ctx); err != nil || more != 0 {
		t.Fatalf("Advance = %d, %v; want one wave", more, err)
	}
	got2, err := p2.Extract(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2.Values, want.Values) {
		t.Fatal("concurrent shard execution changed the values")
	}
	if !reflect.DeepEqual(got2.Store.Observations(), want.Store.Observations()) {
		t.Fatal("concurrent shard execution changed the observation list")
	}
}

// TestMonteCarloPlanStageOrderErrors pins the stage contract of the
// fixed-budget and exact plans: skipping a stage is a loud error, not
// silent corruption, and only Monte-Carlo shards own a permutation slice.
func TestMonteCarloPlanStageOrderErrors(t *testing.T) {
	ctx := context.Background()
	e := duplicatedEvaluator(t, 502)
	p, err := NewMonteCarloPlan(ctx, e, planConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	checkStageOrder(t, "fixed", p, true)
	ep, err := NewExactPlan(e, mc.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	checkStageOrder(t, "exact", ep, false)
}

// checkStageOrder drives a fresh plan through its whole life, checking that
// every stage taken out of order fails: Advance before or with unobserved
// shards, Extract before the plan finished, and Advance after it. slice is
// whether the plan's shards own a permutation slice.
func checkStageOrder(t *testing.T, name string, p Plan, slice bool) {
	t.Helper()
	ctx := context.Background()
	if _, err := p.Advance(ctx); err == nil {
		t.Fatalf("%s: Advance before observing the shards must fail", name)
	}
	if _, err := p.Extract(ctx); err == nil {
		t.Fatalf("%s: Extract before the plan finished must fail", name)
	}
	if _, _, ok := p.ShardSlice(0); ok != slice {
		t.Fatalf("%s: ShardSlice(0) ok = %v, want %v", name, ok, slice)
	}
	if err := p.ObserveShard(ctx, 0); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if p.Shards() > 1 {
		if _, err := p.Advance(ctx); err == nil {
			t.Fatalf("%s: Advance with an unobserved shard must fail", name)
		}
	}
	for next := 1; ; {
		for ; next < p.Shards(); next++ {
			if err := p.ObserveShard(ctx, next); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		more, err := p.Advance(ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if more == 0 {
			break
		}
	}
	if _, err := p.Advance(ctx); err == nil {
		t.Fatalf("%s: Advance after the plan finished must fail", name)
	}
	if _, err := p.Extract(ctx); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestMonteCarloShardClamp pins the shard-count clamp: more shards than
// permutations collapse to one shard per permutation, and the result still
// matches the serial pipeline.
func TestMonteCarloShardClamp(t *testing.T) {
	e := duplicatedEvaluator(t, 503)
	cfg := planConfig(0)
	cfg.Samples = 3
	p, err := NewMonteCarloPlan(context.Background(), e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != 1 {
		t.Fatalf("Shards() = %d for Shards=0, want 1", p.Shards())
	}
	cfg.Shards = 64
	p, err = NewMonteCarloPlan(context.Background(), e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != 3 {
		t.Fatalf("Shards() = %d for 64 shards over 3 permutations, want 3", p.Shards())
	}
	want, err := MonteCarloCtx(context.Background(), e, MonteCarloConfig{Samples: 3, Completion: mc.DefaultConfig(3), Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	got, err := MonteCarloCtx(context.Background(), e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Values, want.Values) {
		t.Fatal("over-sharded pipeline diverges from serial")
	}
}

package utility

import (
	"math"
	"strings"
	"testing"
)

func TestCellBatchStampVerify(t *testing.T) {
	b := &CellBatch{N: 4, Cells: []SnapshotCell{
		{Round: 1, Mask: 0b101, Value: 0.25},
		{Round: 0, Mask: 0b11, Value: -0.5},
		{Round: 1, Mask: 0b10, Value: 1.75},
	}}
	b.Stamp()
	if err := b.Verify(); err != nil {
		t.Fatalf("freshly stamped batch must verify: %v", err)
	}
	// Canonical order: (round, mask).
	want := []struct {
		round int
		mask  uint64
	}{{0, 0b11}, {1, 0b10}, {1, 0b101}}
	for i, w := range want {
		if b.Cells[i].Round != w.round || b.Cells[i].Mask != w.mask {
			t.Fatalf("cell %d = (%d,%#x), want (%d,%#x)", i, b.Cells[i].Round, b.Cells[i].Mask, w.round, w.mask)
		}
	}
	// Stamping is idempotent.
	d := b.Digest
	b.Stamp()
	if b.Digest != d {
		t.Fatal("restamping a canonical batch changed the digest")
	}
}

func TestCellBatchVerifyCatchesTampering(t *testing.T) {
	b := &CellBatch{N: 4, Cells: []SnapshotCell{
		{Round: 0, Mask: 0b1, Value: 1},
		{Round: 0, Mask: 0b10, Value: 2},
	}}
	b.Stamp()
	mutations := []func(*CellBatch){
		func(b *CellBatch) { b.Cells[0].Value = 3 },
		func(b *CellBatch) { b.Cells[1].Round = 5 },
		func(b *CellBatch) { b.Cells[0].Mask = 0b100 },
		func(b *CellBatch) { b.Cells[0], b.Cells[1] = b.Cells[1], b.Cells[0] },
		func(b *CellBatch) { b.Digest = strings.Repeat("0", 16) },
	}
	for i, mutate := range mutations {
		c := &CellBatch{N: b.N, Cells: append([]SnapshotCell(nil), b.Cells...), Digest: b.Digest}
		mutate(c)
		if err := c.Verify(); err == nil {
			t.Fatalf("mutation %d went undetected", i)
		}
	}
}

func TestExportPreloadRoundTrip(t *testing.T) {
	run := tinyRun(t, 4, 3, 2)
	src := NewEvaluator(run)
	sets := []Set{
		FromMembers(4, []int{0}),
		FromMembers(4, []int{1, 3}),
		FromMembers(4, []int{0, 1, 2, 3}),
	}
	want := make(map[int][]float64, len(run.Rounds))
	for ti := range run.Rounds {
		for _, s := range sets {
			want[ti] = append(want[ti], src.Utility(ti, s))
		}
	}
	batch := src.ExportNew()
	if batch == nil {
		t.Fatal("ExportNew returned nil after fresh evaluations")
	}
	if got, wantN := len(batch.Cells), len(sets)*len(run.Rounds); got != wantN {
		t.Fatalf("exported %d cells, want %d", got, wantN)
	}
	if err := batch.Verify(); err != nil {
		t.Fatalf("exported batch does not verify: %v", err)
	}
	// Drained cells are not exported again.
	if again := src.ExportNew(); again != nil {
		t.Fatalf("second ExportNew re-exported %d cells, want nil", len(again.Cells))
	}

	dst := NewEvaluator(run)
	added, err := dst.Preload(batch)
	if err != nil {
		t.Fatal(err)
	}
	if added != len(batch.Cells) {
		t.Fatalf("preload added %d cells, want %d", added, len(batch.Cells))
	}
	if dst.Preloaded() != added {
		t.Fatalf("Preloaded() = %d, want %d", dst.Preloaded(), added)
	}
	for ti := range run.Rounds {
		for si, s := range sets {
			if got := dst.Utility(ti, s); got != want[ti][si] {
				t.Fatalf("round %d set %d: warm value %v != cold value %v (must be bit-identical)", ti, si, got, want[ti][si])
			}
		}
	}
	if dst.Calls() != 0 {
		t.Fatalf("warm evaluator paid %d calls, want 0", dst.Calls())
	}
	if got, wantN := dst.WarmHits(), len(sets)*len(run.Rounds); got != wantN {
		t.Fatalf("WarmHits = %d, want %d", got, wantN)
	}
	// Preloaded cells never count as new work: nothing to re-export.
	if exp := dst.ExportNew(); exp != nil {
		t.Fatalf("warm evaluator re-exported %d preloaded cells, want nil", len(exp.Cells))
	}
}

func TestPreloadIdempotentAndPartial(t *testing.T) {
	run := tinyRun(t, 4, 2, 2)
	src := NewEvaluator(run)
	a := FromMembers(4, []int{0, 1})
	bSet := FromMembers(4, []int{2, 3})
	src.Utility(0, a)
	src.Utility(0, bSet)
	batch := src.ExportNew()

	dst := NewEvaluator(run)
	dst.Utility(0, a) // dst already knows one of the two cells
	added, err := dst.Preload(batch)
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Fatalf("preload over a half-warm evaluator added %d, want 1", added)
	}
	// Preloading the same batch again adds nothing.
	added, err = dst.Preload(batch)
	if err != nil || added != 0 {
		t.Fatalf("re-preload added %d, err %v; want 0, nil", added, err)
	}
}

func TestPreloadRejectsBadBatches(t *testing.T) {
	run := tinyRun(t, 4, 2, 2)
	good := func() *CellBatch {
		b := &CellBatch{N: 4, Cells: []SnapshotCell{{Round: 0, Mask: 0b11, Value: 0.5}}}
		b.Stamp()
		return b
	}
	cases := []struct {
		name  string
		batch *CellBatch
	}{
		{"wrong-universe", func() *CellBatch { b := good(); b.N = 5; b.Stamp(); return b }()},
		{"bad-digest", func() *CellBatch { b := good(); b.Digest = "dead"; return b }()},
		{"out-of-range-round", func() *CellBatch {
			b := &CellBatch{N: 4, Cells: []SnapshotCell{{Round: 99, Mask: 0b1, Value: 1}}}
			b.Stamp()
			return b
		}()},
		{"empty-coalition", func() *CellBatch {
			b := &CellBatch{N: 4, Cells: []SnapshotCell{{Round: 0, Mask: 0, Value: 1}}}
			b.Stamp()
			return b
		}()},
		{"mask-beyond-universe", func() *CellBatch {
			b := &CellBatch{N: 4, Cells: []SnapshotCell{{Round: 0, Mask: 1 << 10, Value: 1}}}
			b.Stamp()
			return b
		}()},
		{"overflow-key-in-small-universe", func() *CellBatch {
			b := &CellBatch{N: 4, Cells: []SnapshotCell{{Round: 0, Key: "0100000000000000", Value: 1}}}
			b.Stamp()
			return b
		}()},
		{"nan-value", nonFinite(math.NaN())},
		{"pos-inf-value", nonFinite(math.Inf(1))},
		{"neg-inf-value", nonFinite(math.Inf(-1))},
	}
	for _, tc := range cases {
		e := NewEvaluator(run)
		added, err := e.Preload(tc.batch)
		if err == nil {
			t.Fatalf("%s: preload accepted a bad batch", tc.name)
		}
		if strings.HasSuffix(tc.name, "-value") && !strings.Contains(err.Error(), "round 1") {
			t.Fatalf("%s: error %q does not name the cell's round", tc.name, err)
		}
		if added != 0 || e.Preloaded() != 0 {
			t.Fatalf("%s: rejected batch still installed cells (added %d, preloaded %d)", tc.name, added, e.Preloaded())
		}
	}
}

// nonFinite is a stamped batch whose second cell, in round 1, carries v;
// the valid first cell checks that the rejection installs nothing.
func nonFinite(v float64) *CellBatch {
	b := &CellBatch{N: 4, Cells: []SnapshotCell{
		{Round: 0, Mask: 0b1, Value: 0.5},
		{Round: 1, Mask: 0b11, Value: v},
	}}
	b.Stamp()
	return b
}

// TestPreloadAtomicOnMixedBatch pins the all-or-nothing contract: a batch
// with one invalid cell among valid ones installs nothing.
func TestPreloadAtomicOnMixedBatch(t *testing.T) {
	run := tinyRun(t, 4, 2, 2)
	b := &CellBatch{N: 4, Cells: []SnapshotCell{
		{Round: 0, Mask: 0b1, Value: 0.5},
		{Round: 0, Mask: 0, Value: 0.25}, // invalid: empty coalition
		{Round: 1, Mask: 0b11, Value: 0.125},
	}}
	b.Stamp()
	e := NewEvaluator(run)
	if _, err := e.Preload(b); err == nil {
		t.Fatal("mixed batch must be rejected")
	}
	if e.Preloaded() != 0 {
		t.Fatalf("mixed batch installed %d cells, want 0", e.Preloaded())
	}
	// The evaluator still works cold after the rejection.
	e.Utility(0, FromMembers(4, []int{0}))
	if e.Calls() != 1 {
		t.Fatalf("post-rejection evaluation paid %d calls, want 1", e.Calls())
	}
}

func TestPreloadNilAndEmpty(t *testing.T) {
	run := tinyRun(t, 4, 2, 2)
	e := NewEvaluator(run)
	if added, err := e.Preload(nil); added != 0 || err != nil {
		t.Fatalf("Preload(nil) = (%d, %v), want (0, nil)", added, err)
	}
	empty := &CellBatch{N: 4}
	empty.Stamp()
	if added, err := e.Preload(empty); added != 0 || err != nil {
		t.Fatalf("Preload(empty) = (%d, %v), want (0, nil)", added, err)
	}
	if e.ExportNew() != nil {
		t.Fatal("empty evaluator exported a batch")
	}
}

// TestSessionAbsorbIsJobLocal pins the isolation a remote worker's batch
// gets before its shard is checked: the absorbing session reads the
// absorbed values (as hits, ahead of anything cached), no other session
// or the shared table sees them, and a batch that fails validation
// installs nothing.
func TestSessionAbsorbIsJobLocal(t *testing.T) {
	run := tinyRun(t, 4, 2, 2)
	e := NewEvaluator(run)
	a := FromMembers(4, []int{0, 1})
	honest := e.Utility(0, a)
	b := NewCellBatch(4, []Cell{{Round: 0, Subset: a}, {Round: 1, Subset: a}}, []float64{honest + 1, 0.5})

	s := e.NewSession()
	if err := s.Absorb(b); err != nil {
		t.Fatal(err)
	}
	if got := s.Utility(0, a); got != honest+1 {
		t.Fatalf("absorbing session read %v, want the absorbed %v over the cached %v", got, honest+1, honest)
	}
	if got := s.Utility(1, a); got != 0.5 {
		t.Fatalf("absorbing session read %v, want the absorbed 0.5", got)
	}
	if s.Calls() != 2 || s.Hits() != 2 || s.Misses() != 0 {
		t.Fatalf("absorbed lookups billed calls=%d hits=%d misses=%d, want 2/2/0", s.Calls(), s.Hits(), s.Misses())
	}
	if got := e.NewSession().Utility(0, a); got != honest {
		t.Fatalf("another session read %v, want the shared %v", got, honest)
	}
	calls := e.Calls()
	if got := e.Utility(1, a); got == 0.5 || e.Calls() != calls+1 {
		t.Fatal("an absorbed cell leaked into the shared memo table")
	}

	bad := NewCellBatch(4, []Cell{{Round: 0, Subset: a}, {Round: 0, Subset: FromMembers(4, []int{2})}}, []float64{7, math.NaN()})
	s2 := e.NewSession()
	if err := s2.Absorb(bad); err == nil {
		t.Fatal("a batch with a NaN value was absorbed")
	}
	if got := s2.Utility(0, a); got != honest {
		t.Fatalf("a rejected batch installed a value: read %v, want %v", got, honest)
	}
}

// TestAdoptQueuesForExport pins Adopt's contract: adopted cells serve
// every lookup without counting as Calls or as preloaded, are exported
// by the next ExportNew exactly like local evaluations, and cells already
// cached are skipped.
func TestAdoptQueuesForExport(t *testing.T) {
	run := tinyRun(t, 4, 2, 2)
	src := NewEvaluator(run)
	a, c := FromMembers(4, []int{0, 1}), FromMembers(4, []int{2, 3})
	va, vc := src.Utility(0, a), src.Utility(1, c)
	b := src.ExportNew()

	dst := NewEvaluator(run)
	dst.Utility(0, a)
	dst.ExportNew()
	added, err := dst.Adopt(b)
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Fatalf("adopt over a half-warm evaluator added %d, want 1", added)
	}
	if got := dst.Utility(1, c); got != vc || dst.Calls() != 1 || dst.Preloaded() != 0 {
		t.Fatalf("adopted cell read %v (want %v), calls %d (want 1), preloaded %d (want 0)", got, vc, dst.Calls(), dst.Preloaded())
	}
	exp := dst.ExportNew()
	if exp == nil || len(exp.Cells) != 1 || exp.Cells[0].Round != 1 || exp.Cells[0].Value != vc {
		t.Fatalf("ExportNew after adopt = %+v, want exactly the adopted cell", exp)
	}
	if dst.Utility(0, a) != va {
		t.Fatal("adopt overwrote a cached cell")
	}
}

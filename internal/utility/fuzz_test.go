package utility

import (
	"encoding/json"
	"testing"
)

// FuzzCellBatch fuzzes the cell-batch decoder a worker completion and a
// cell sidecar line go through: JSON-decode, Verify, then Preload into a
// fresh evaluator. The property: no panic, and every input is either
// rejected at some step or re-encodes into a batch that decodes,
// re-verifies, and re-encodes to the same bytes.
func FuzzCellBatch(f *testing.F) {
	small := tinyRun(f, 4, 3, 2)
	large := tinyRun(f, 65, 2, 2)
	batch := func(n int, cells ...SnapshotCell) []byte {
		b := &CellBatch{N: n, Cells: cells}
		b.Stamp()
		enc, err := json.Marshal(b)
		if err != nil {
			f.Fatal(err)
		}
		return enc
	}
	valid := batch(4, SnapshotCell{Round: 0, Mask: 0b1, Value: 0.5},
		SnapshotCell{Round: 2, Mask: 0b1011, Value: -1.25})
	for _, seed := range [][]byte{
		valid,
		batch(65, SnapshotCell{Round: 1, Key: "01000000000000000100000000000000", Value: 3}),
		batch(4, SnapshotCell{Round: 0, Mask: 0b10000, Value: 1}),
		batch(4, SnapshotCell{Round: 7, Mask: 0b1, Value: 1}),
		batch(5, SnapshotCell{Round: 0, Mask: 0b1, Value: 1}),
		[]byte(`{"n":4,"cells":[{"round":0,"mask":1,"value":0.5}],"digest":"dead"}`),
		[]byte(`{"n":4,"cells":null,"digest":"cbf29ce484222325"}`),
		valid[:len(valid)/2],
		[]byte(`null`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b *CellBatch
		if err := json.Unmarshal(data, &b); err != nil || b == nil {
			return
		}
		if err := b.Verify(); err != nil {
			return
		}
		run := small
		if b.N == large.NumClients() {
			run = large
		}
		if _, err := NewEvaluator(run).Preload(b); err != nil {
			return
		}
		enc, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		var again *CellBatch
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if err := again.Verify(); err != nil {
			t.Fatalf("re-encoded batch does not verify: %v", err)
		}
		if _, err := NewEvaluator(run).Preload(again); err != nil {
			t.Fatalf("re-encoded batch does not preload: %v", err)
		}
		if enc2, err := json.Marshal(again); err != nil || string(enc2) != string(enc) {
			t.Fatalf("round trip changed the batch:\n first %s\nsecond %s", enc, enc2)
		}
	})
}

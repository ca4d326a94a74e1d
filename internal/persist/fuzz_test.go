package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"comfedsv/internal/faultinject"
	"comfedsv/internal/utility"
)

// fuzzLog is the shared fuzz property of both logs: input bytes written
// as the log must read either as an error wrapping corrupt or as records
// that, re-encoded through the log's own append path and read again,
// come back equal.
func fuzzLog[T any](t *testing.T, s *dirStore, kind *logKind, data []byte, read func(id string) ([]T, error)) {
	in, err := s.log(kind, "fuzz-in")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in.path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := read(in.id)
	if err != nil {
		if !errors.Is(err, kind.errCorrupt) {
			t.Fatalf("rejected without %v: %v", kind.errCorrupt, err)
		}
		return
	}
	out, err := s.log(kind, "fuzz-out")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(out.path); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := out.append(rec, nil, faultinject.Point{}); err != nil {
			t.Fatalf("re-encoding %+v: %v", rec, err)
		}
	}
	again, err := read(out.id)
	if err != nil {
		t.Fatalf("re-encoded records do not read back: %v", err)
	}
	want, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("round trip changed the records:\n read %s\nagain %s", want, got)
	}
}

// lines joins the JSON encodings of recs as log lines.
func lines(f *testing.F, recs ...any) []byte {
	var out []byte
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		out = append(append(out, b...), '\n')
	}
	return out
}

func FuzzReadJournal(f *testing.F) {
	req, err := json.Marshal(map[string]any{"run_id": "run-abc"})
	if err != nil {
		f.Fatal(err)
	}
	submit := JournalRecord{Type: RecSubmit, Request: req}
	valid := lines(f, submit,
		JournalRecord{Type: RecTask, Stage: "prepare", Shards: 4},
		JournalRecord{Type: RecTask, Stage: "observe", Shard: 2, Digest: "deadbeef"},
		JournalRecord{Type: RecTask, Stage: "complete", Shards: 2},
		JournalRecord{Type: RecFail, Error: "boom"})
	for _, seed := range [][]byte{
		valid,
		append(lines(f, submit), `{"type":"task","st`...),
		append(lines(f, submit), "###garbage###\n"...),
		lines(f, JournalRecord{Type: RecTask, Stage: "prepare"}),
		append(lines(f, submit), `{"type":"fail"} {"type":"fail"} junk`+"\n"...),
		nil,
	} {
		f.Add(seed)
	}
	jobs, err := NewJobStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzLog(t, &jobs.dirStore, journalLog, data, jobs.ReadJournal)
	})
}

func FuzzReadCells(f *testing.F) {
	b1 := &utility.CellBatch{N: 4, Cells: []utility.SnapshotCell{{Round: 0, Mask: 0b1, Value: 0.5}}}
	b2 := &utility.CellBatch{N: 4, Cells: []utility.SnapshotCell{
		{Round: 1, Mask: 0b11, Value: -0.25}, {Round: 2, Mask: 0b101, Value: 1.5}}}
	b1.Stamp()
	b2.Stamp()
	for _, seed := range [][]byte{
		lines(f, b1, b2),
		append(lines(f, b1), `{"n":4,"cells":[{"round":1,`...),
		append(lines(f, b1), "not json at all\n"...),
		append(lines(f, b1), `{"n":4} {"n":4} junk`+"\n"...),
		nil,
	} {
		f.Add(seed)
	}
	runs, err := NewRunStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzLog(t, &runs.dirStore, cellsLog, data, runs.ReadCells)
	})
}

// FuzzLoadRun checks that every input is rejected or is canonical:
// SaveRun(LoadRun(b)) reproduces b. Each input is also tried with a
// matching checksum appended, so mutations reach the header and float
// checks instead of stopping at the footer.
func FuzzLoadRun(f *testing.F) {
	valid := encode(f, tinyLR())
	f.Add(valid)
	f.Add(valid[:len(valid)-4])
	f.Add([]byte(v1Trace))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, b := range [][]byte{data, seal(data)} {
			run, err := LoadRun(bytes.NewReader(b))
			if err != nil {
				continue
			}
			var out bytes.Buffer
			if err := SaveRun(&out, run); err != nil {
				t.Fatalf("re-encoding an accepted trace: %v", err)
			}
			if !bytes.Equal(out.Bytes(), b) {
				t.Fatalf("SaveRun(LoadRun(b)) differs from b:\n%x\n%x", b, out.Bytes())
			}
		}
	})
}

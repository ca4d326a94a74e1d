package persist

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"comfedsv/internal/utility"
)

// logHarness drives one of the two append-only logs through the same
// steps: the i-th fixture record, an append by a freshly reopened writer
// (as a restarted daemon would append), and a read of every record.
type logHarness struct {
	path    string
	corrupt error
	record  func(i int) any
	append  func(rec any) error
	read    func() (any, error)
}

func logHarnesses(t *testing.T) map[string]logHarness {
	t.Helper()
	jobs := newTestStore(t)
	runs := newCellStore(t)
	const jobID, runID = "job-log", "run-0123456789abcdef"
	return map[string]logHarness{
		"journal": {
			path:    filepath.Join(jobs.Dir(), jobID+journalSuffix),
			corrupt: ErrCorruptJournal,
			record: func(i int) any {
				if i == 0 {
					return submitRec(t)
				}
				return JournalRecord{Type: RecTask, Stage: "observe", Shard: i, Digest: "d"}
			},
			append: func(rec any) error {
				j, err := jobs.OpenJournal(jobID, nil)
				if err != nil {
					return err
				}
				defer j.Close()
				return j.Append(rec.(JournalRecord))
			},
			read: func() (any, error) { return jobs.ReadJournal(jobID) },
		},
		"cells": {
			path:    filepath.Join(runs.Dir(), runID+cellsSuffix),
			corrupt: ErrCorruptCellCache,
			record: func(i int) any {
				return cellBatch(t, 4, utility.SnapshotCell{Round: i, Mask: 0b11, Value: float64(i) + 0.5})
			},
			append: func(rec any) error {
				return runs.AppendCells(runID, rec.(*utility.CellBatch), "merge", nil)
			},
			read: func() (any, error) { return runs.ReadCells(runID) },
		},
	}
}

// appendRaw writes s to the end of the file at path, bypassing the log.
func appendRaw(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTornTailThenAppendKeepsEveryRecord pins the writer-side repair of a
// torn tail, for both logs: a crash mid-append leaves a fragment; the
// restarted writer's next append must not glue its record onto it, so the
// log reads back every durable record plus the new one.
func TestTornTailThenAppendKeepsEveryRecord(t *testing.T) {
	for name, h := range logHarnesses(t) {
		t.Run(name, func(t *testing.T) {
			var want []any
			for i := 0; i < 2; i++ {
				rec := h.record(i)
				if err := h.append(rec); err != nil {
					t.Fatal(err)
				}
				want = append(want, rec)
			}
			appendRaw(t, h.path, `{"type":"task","cells":[{"st`)
			rec := h.record(2)
			if err := h.append(rec); err != nil {
				t.Fatal(err)
			}
			want = append(want, rec)
			got, err := h.read()
			if err != nil {
				t.Fatalf("append after a torn tail left the log unreadable: %v", err)
			}
			if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
				t.Fatalf("read back\n %s\nwant\n %s", g, w)
			}
		})
	}
}

// TestLineMustHoldExactlyOneRecord pins strict line decoding for both
// logs: a complete line with anything after its record, or a line that is
// not a JSON object, is corruption rather than a silently truncated read.
func TestLineMustHoldExactlyOneRecord(t *testing.T) {
	for name, h := range logHarnesses(t) {
		t.Run(name, func(t *testing.T) {
			if err := h.append(h.record(0)); err != nil {
				t.Fatal(err)
			}
			rec := mustJSON(t, h.record(1))
			for _, line := range []string{
				rec + " " + rec + " junk\n",
				rec + rec + "\n",
				rec + " junk\n",
				"null\n",
			} {
				data, err := os.ReadFile(h.path)
				if err != nil {
					t.Fatal(err)
				}
				appendRaw(t, h.path, line)
				if _, err := h.read(); !errors.Is(err, h.corrupt) {
					t.Fatalf("line %q: err = %v, want %v", line, err, h.corrupt)
				}
				if err := os.WriteFile(h.path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

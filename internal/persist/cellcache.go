package persist

import (
	"errors"
	"fmt"

	"comfedsv/internal/faultinject"
	"comfedsv/internal/utility"
)

// Cell-cache sidecar suffixes. Each run may carry a `<runID>.cells` file
// next to its trace: an append-only log of utility.CellBatch JSON lines,
// the durable half of the run-scoped utility-cell cache.
const (
	cellsSuffix        = ".cells"
	cellsCorruptSuffix = ".cells.corrupt"
)

// ErrCorruptCellCache reports a cell-cache sidecar with a complete line
// that is not exactly one valid batch. A torn tail is not corruption.
// Either this or a digest mismatch at preload time is remedied by
// quarantine and a cold start (WarmCells), never a failed job.
var ErrCorruptCellCache = errors.New("persist: corrupt cell cache")

// AppendCells durably appends one batch of evaluated cells to run id's
// sidecar. The hook, if non-nil, is consulted before and after the write
// (faultinject OpCellsBefore / OpCellsAfter) with stage naming the flush
// boundary; pass nil in production. An empty or nil batch is a no-op.
func (s *RunStore) AppendCells(id string, b *utility.CellBatch, stage string, hook faultinject.Hook) error {
	if b == nil || len(b.Cells) == 0 {
		return nil
	}
	l, err := s.log(cellsLog, id)
	if err != nil {
		return err
	}
	s.cellsMu.Lock()
	defer s.cellsMu.Unlock()
	return l.append(b, hook, faultinject.Point{Stage: stage, Shard: -1, JobID: id})
}

// ReadCells decodes run id's sidecar into its durable batches (see
// readLog), or returns ErrCorruptCellCache. A missing sidecar is a cold
// cache: (nil, nil). Batch digests are NOT verified here — the
// evaluator's Preload does that against the run it actually serves.
func (s *RunStore) ReadCells(id string) ([]*utility.CellBatch, error) {
	l, err := s.log(cellsLog, id)
	if err != nil {
		return nil, err
	}
	return readLog[*utility.CellBatch](l)
}

// WarmCells hands every batch of run id's sidecar, in order, to install,
// and returns the cells installed and the batches read. A sidecar that
// does not read, or a batch install rejects, is quarantined and the error
// names the cause and quarantine path; batches installed before the
// damage stay (they verified), and the caller proceeds warm or cold.
func (s *RunStore) WarmCells(id string, install func(*utility.CellBatch) (int, error)) (cells, batches int, err error) {
	bs, cause := s.ReadCells(id)
	for _, b := range bs {
		n, ierr := install(b)
		if ierr != nil {
			cause = ierr
			break
		}
		cells += n
	}
	if cause != nil {
		dst, qerr := s.QuarantineCells(id)
		if qerr != nil {
			dst = "nowhere, " + qerr.Error()
		}
		err = fmt.Errorf("%w (quarantined to %s)", cause, dst)
	}
	return cells, len(bs), err
}

// HasCells reports whether a cell-cache sidecar exists for run id.
func (s *RunStore) HasCells(id string) bool { return s.has(id, cellsSuffix) }

// QuarantineCells moves run id's sidecar out of the warm-start path to
// its .corrupt name (see appendLog.quarantine) and returns that path. The
// next writer starts a fresh sidecar; the next reader sees a cold cache.
func (s *RunStore) QuarantineCells(id string) (string, error) {
	l, err := s.log(cellsLog, id)
	if err != nil {
		return "", err
	}
	s.cellsMu.Lock()
	defer s.cellsMu.Unlock()
	return l.quarantine(nil)
}

// RemoveCells deletes run id's sidecar and any quarantined copy. Missing
// files are not an error.
func (s *RunStore) RemoveCells(id string) error {
	return s.remove(id, cellsSuffix, cellsCorruptSuffix)
}

package persist

import (
	"sync"
	"time"
)

// RunStore persists shared training runs (SaveRun/LoadRun) and their
// cell-cache sidecars, keyed by content-addressed run ID, so a restarted
// daemon recovers every persisted run by scanning the directory. It is
// safe for concurrent use as long as no two writers target the same run's
// trace, which content addressing plus the service's train-once-per-ID
// discipline guarantees; sidecar appends are serialized by the store.
type RunStore struct {
	dirStore
	cellsMu sync.Mutex // serializes sidecar appends, torn-tail repair included
}

// NewRunStore opens (creating if needed) a run store rooted at dir.
func NewRunStore(dir string) (*RunStore, error) {
	ds, err := newDirStore(dir, "run")
	if err != nil {
		return nil, err
	}
	return &RunStore{dirStore: ds}, nil
}

// HasRun reports whether a trace exists for the given run ID.
func (s *RunStore) HasRun(id string) bool { return s.has(id, runSuffix) }

// ModTime returns the modification time of the stored trace — a stand-in
// for the training time when recovering runs from a previous process.
func (s *RunStore) ModTime(id string) (time.Time, error) { return s.modTime(id, runSuffix) }

// ListRuns returns the sorted IDs of every stored run.
func (s *RunStore) ListRuns() ([]string, error) { return s.list(runSuffix) }

// DeleteRun removes the stored trace along with the run's cell-cache
// sidecar and any quarantined copy — cached cells are meaningless without
// their trace. Missing files are not an error.
func (s *RunStore) DeleteRun(id string) error {
	return s.remove(id, runSuffix, cellsSuffix, cellsCorruptSuffix)
}

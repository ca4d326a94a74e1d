package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"comfedsv/internal/fl"
)

// runSuffix names a stored training trace in either store.
const runSuffix = ".run.json"

// dirStore is the directory base JobStore and RunStore share: one flat
// directory of <id><suffix> files, where every id is a validated single
// file-name component, artifacts are written atomically, and removals are
// made durable with a directory fsync.
type dirStore struct {
	dir  string
	noun string // "job" or "run", for error messages
}

func newDirStore(dir, noun string) (dirStore, error) {
	if dir == "" {
		return dirStore{}, fmt.Errorf("persist: empty %s store directory", noun)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return dirStore{}, fmt.Errorf("persist: creating %s store: %w", noun, err)
	}
	return dirStore{dir: dir, noun: noun}, nil
}

// Dir returns the store's root directory.
func (s *dirStore) Dir() string { return s.dir }

// ValidJobID reports whether id is usable as a job or run key: non-empty,
// at most 128 bytes, and limited to [A-Za-z0-9._-] with no leading dot —
// which keeps every key a single safe file-name component.
func ValidJobID(id string) bool {
	if id == "" || len(id) > 128 || id[0] == '.' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

func (s *dirStore) path(id, suffix string) (string, error) {
	if !ValidJobID(id) {
		return "", fmt.Errorf("persist: invalid %s id %q", s.noun, id)
	}
	return filepath.Join(s.dir, id+suffix), nil
}

// has reports whether id's file with the given suffix exists.
func (s *dirStore) has(id, suffix string) bool {
	_, err := s.modTime(id, suffix)
	return err == nil
}

// modTime returns the modification time of id's file with the given
// suffix — a stand-in for creation or completion times when recovering
// from a previous process.
func (s *dirStore) modTime(id, suffix string) (time.Time, error) {
	path, err := s.path(id, suffix)
	if err != nil {
		return time.Time{}, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return time.Time{}, fmt.Errorf("persist: %w", err)
	}
	return info.ModTime(), nil
}

// list returns the sorted valid ids of every file with the given suffix.
func (s *dirStore) list(suffix string) ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var ids []string
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), suffix)
		if ok && !e.IsDir() && ValidJobID(id) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// remove deletes id's files with the given suffixes, then fsyncs the
// directory so the deletion is durable: a resurrected file would make a
// restarted daemon replay or serve what was deleted. Missing files are not
// an error.
func (s *dirStore) remove(id string, suffixes ...string) error {
	for _, suffix := range suffixes {
		path, err := s.path(id, suffix)
		if err != nil {
			return err
		}
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("persist: %w", err)
		}
	}
	return syncDir(s.dir)
}

// SaveRun persists the training trace stored under id.
func (s *dirStore) SaveRun(id string, run *fl.Run) error {
	path, err := s.path(id, runSuffix)
	if err != nil {
		return err
	}
	return writeAtomic(s.dir, path, func(f *os.File) error { return SaveRun(f, run) })
}

// LoadRun reads the training trace stored under id.
func (s *dirStore) LoadRun(id string) (*fl.Run, error) {
	path, err := s.path(id, runSuffix)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return decodeRun(b)
}

// writeAtomic writes a file under dir via temp file + fsync + rename, so a
// crashed writer never leaves a half-written artifact behind a valid name.
func writeAtomic(dir, path string, write func(*os.File) error) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	// Flush data before the rename: on common filesystems a rename can
	// survive a crash that the unsynced data does not, which would leave a
	// truncated artifact behind a valid name.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-completed rename or remove of an
// entry in it is durable. A failure is surfaced, never swallowed: an
// unsynced directory update can be undone by a crash, resurrecting a
// name the caller believes is gone or losing one it believes exists.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: opening directory for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("persist: syncing directory: %w", err)
	}
	return nil
}

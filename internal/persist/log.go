package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"

	"comfedsv/internal/faultinject"
)

// logKind is what tells the two append-only logs apart: file names, the
// corrupt sentinel, and the fault points fired around each append.
type logKind struct {
	noun          string // "journal" or "cell cache", for error messages
	suffix        string
	corruptSuffix string
	errCorrupt    error
	before, after string // faultinject ops around each append
}

var (
	journalLog = &logKind{"journal", journalSuffix, corruptSuffix, ErrCorruptJournal,
		faultinject.OpJournalBefore, faultinject.OpJournalAfter}
	cellsLog = &logKind{"cell cache", cellsSuffix, cellsCorruptSuffix, ErrCorruptCellCache,
		faultinject.OpCellsBefore, faultinject.OpCellsAfter}
)

// appendLog is one append-only JSON-lines file (see the package comment).
// Each append opens the file afresh; callers serialize appends to a file.
type appendLog struct {
	*logKind
	dir, id, path string
	dead          error // set by a simulated crash or Close: appends are refused
}

// log returns the kind's log of id in the store's directory.
func (s *dirStore) log(kind *logKind, id string) (*appendLog, error) {
	path, err := s.path(id, kind.suffix)
	if err != nil {
		return nil, err
	}
	return &appendLog{logKind: kind, dir: s.dir, id: id, path: path}, nil
}

// append durably appends v as one line: marshal, the before hook, one
// write, fsync, the after hook. The hook, if non-nil, sees at with its Op
// set to the kind's before/after op. After a simulated crash (the hook
// returned faultinject.ErrCrash) the log is dead: the file stays as the
// dying process left it, and every later append returns the crash error.
func (l *appendLog) append(v any, hook faultinject.Hook, at faultinject.Point) error {
	if l.dead != nil {
		return l.dead
	}
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("persist: encoding %s record: %w", l.noun, err)
	}
	line = append(line, '\n')
	if err := l.fire(hook, at, l.before); err != nil {
		return err
	}
	if err := l.write(line); err != nil {
		return err
	}
	return l.fire(hook, at, l.after)
}

// fire consults the fault hook at one append point, latching a crash.
func (l *appendLog) fire(hook faultinject.Hook, at faultinject.Point, op string) error {
	if hook == nil {
		return nil
	}
	at.Op = op
	err := hook(at)
	if errors.Is(err, faultinject.ErrCrash) {
		l.dead = err
	}
	return err
}

// write opens the log, cuts a torn tail, then writes and fsyncs the line.
func (l *appendLog) write(line []byte) error {
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err = cutTornTail(f); err == nil {
		if _, err = f.Write(line); err == nil {
			err = f.Sync()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("persist: appending %s record: %w", l.noun, err)
	}
	return nil
}

// cutTornTail truncates a file that does not end in a newline back to its
// last newline and fsyncs the cut, so the next record cannot fuse with
// the fragment a crash mid-append left. Only writers repair: a worker may
// be reading the file from a shared directory.
func cutTornTail(f *os.File) error {
	info, err := f.Stat()
	if err != nil || info.Size() == 0 {
		return err
	}
	last := []byte{0}
	if _, err := f.ReadAt(last, info.Size()-1); err != nil || last[0] == '\n' {
		return err
	}
	data := make([]byte, info.Size())
	if _, err := f.ReadAt(data, 0); err != nil {
		return err
	}
	if err := f.Truncate(int64(bytes.LastIndexByte(data, '\n') + 1)); err != nil {
		return err
	}
	return f.Sync()
}

// readLog decodes every durable record of l, dropping a torn tail. A
// missing file reads as empty. A complete line that is not exactly one
// JSON object decoding into T with no unknown fields fails with the
// kind's corrupt sentinel, the id and the line number.
func readLog[T any](l *appendLog) ([]T, error) {
	data, err := os.ReadFile(l.path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: reading %s: %w", l.noun, err)
	}
	data = data[:bytes.LastIndexByte(data, '\n')+1]
	var recs []T
	for i, line := range bytes.Split(data, []byte{'\n'}) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec T
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		err := dec.Decode(&rec)
		if err == nil && (line[0] != '{' || dec.InputOffset() != int64(len(line))) {
			err = errors.New("line is not exactly one JSON object")
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %s line %d: %v", l.errCorrupt, l.id, i+1, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// quarantine renames the log to its .corrupt name, so a damaged file
// leaves the read path but stays for inspection, then fsyncs the
// directory: without the sync, a crash right after the rename can
// resurrect the damaged log. The hook, if non-nil, is consulted between
// the rename and the sync (faultinject.OpQuarantine, the crash window the
// resurrection chaos suite targets). It returns the quarantine path.
func (l *appendLog) quarantine(hook faultinject.Hook) (string, error) {
	dst := l.path[:len(l.path)-len(l.suffix)] + l.corruptSuffix
	if err := os.Rename(l.path, dst); err != nil {
		return "", fmt.Errorf("persist: quarantining %s: %w", l.noun, err)
	}
	if hook != nil {
		if err := hook(faultinject.Point{Op: faultinject.OpQuarantine, Stage: "quarantine", Shard: -1, JobID: l.id}); err != nil {
			return "", err
		}
	}
	if err := syncDir(l.dir); err != nil {
		return "", err
	}
	return dst, nil
}

package persist

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"comfedsv/internal/faultinject"
)

// Journal record types and file suffixes.
const (
	journalSuffix = ".journal"
	corruptSuffix = ".journal.corrupt"

	// RecSubmit is a journal's first record: the full job request
	// (datasets or run reference plus effective options), everything a
	// restarted daemon needs to re-derive the job deterministically.
	RecSubmit = "submit"
	// RecTask records one completed stage task (prepare / observe /
	// complete / shapley) with its stage-specific payload.
	RecTask = "task"
	// RecFail records a terminal job failure, so a failed job survives a
	// restart as failed instead of silently re-running.
	RecFail = "fail"
)

// ErrCorruptJournal reports a journal whose durable prefix is unusable: a
// complete line that is not exactly one valid record, or a missing or
// malformed leading submit record. A torn tail is not corruption.
var ErrCorruptJournal = errors.New("persist: corrupt job journal")

// JournalRecord is one append-only entry in a job's task journal.
type JournalRecord struct {
	Type string    `json:"type"`
	Time time.Time `json:"time,omitempty"`
	// Stage is the completed task's stage name for RecTask records.
	Stage string `json:"stage,omitempty"`
	// Shard is the observation shard index of an observe task record.
	Shard int `json:"shard,omitempty"`
	// Shards is the planned shard count on a prepare record, and the
	// number of additional wave shards on a complete record.
	Shards int `json:"shards,omitempty"`
	// Digest is the content hash of an observation shard's evaluated
	// cells — recovery re-executes the shard (observation is a pure
	// function of the journaled request) and verifies the re-derived
	// cells hash identically, turning any determinism violation into a
	// loud failure instead of a silently different report.
	Digest string `json:"digest,omitempty"`
	// Error is the failure reason on RecFail records.
	Error string `json:"error,omitempty"`
	// Request is the service-defined request payload on RecSubmit records.
	Request json.RawMessage `json:"request,omitempty"`
}

// Journal is one job's append-only task journal, an appendLog of
// JournalRecord lines. A Journal is safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	log  *appendLog
	hook faultinject.Hook
}

// OpenJournal returns the append-only journal of job id; the file is
// created by the first Append. The hook, if non-nil, is consulted before
// and after every append — the crash-point seam of the chaos suites; pass
// nil in production.
func (s *JobStore) OpenJournal(id string, hook faultinject.Hook) (*Journal, error) {
	l, err := s.log(journalLog, id)
	if err != nil {
		return nil, err
	}
	return &Journal{log: l, hook: hook}, nil
}

// Append durably appends one record. After a simulated crash (the fault
// hook returned faultinject.ErrCrash) the journal is dead: the file stays
// as the dying process left it, and every later Append returns the crash
// error.
func (j *Journal) Append(rec JournalRecord) error {
	stage := rec.Type
	if rec.Type == RecTask && rec.Stage != "" {
		// Task records expose the pipeline stage, the coordinate chaos
		// suites target crashes by; submit and fail records keep the
		// record type.
		stage = rec.Stage
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.append(rec, j.hook, faultinject.Point{Stage: stage, Shard: rec.Shard, JobID: j.log.id})
}

// Close ends the journal's appends: every later Append fails without
// touching the file, so a straggling append cannot recreate a journal
// that was removed after Close. The file stays on disk; RemoveJournal
// deletes it.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.log.dead == nil {
		j.log.dead = fmt.Errorf("persist: appending journal %s: %w", j.log.id, os.ErrClosed)
	}
	return nil
}

// ReadJournal decodes job id's durable records (see readLog), or returns
// ErrCorruptJournal so the caller can quarantine the file — also when the
// first record is not a valid submit record. A journal with no durable
// records, or none on disk, returns (nil, nil): the process died before
// its first fsync, so the job never durably existed.
func (s *JobStore) ReadJournal(id string) ([]JournalRecord, error) {
	l, err := s.log(journalLog, id)
	if err != nil {
		return nil, err
	}
	recs, err := readLog[JournalRecord](l)
	if err != nil || len(recs) == 0 {
		return nil, err
	}
	if recs[0].Type != RecSubmit || len(recs[0].Request) == 0 {
		return nil, fmt.Errorf("%w: %s does not start with a submit record", ErrCorruptJournal, id)
	}
	return recs, nil
}

// ListJournals returns the sorted IDs of every job with a journal on
// disk — the in-flight jobs a previous process left behind.
func (s *JobStore) ListJournals() ([]string, error) { return s.list(journalSuffix) }

// QuarantineJournal moves job id's journal out of the replay path to its
// .corrupt name (see appendLog.quarantine) and returns that path. Pass a
// nil hook in production.
func (s *JobStore) QuarantineJournal(id string, hook faultinject.Hook) (string, error) {
	l, err := s.log(journalLog, id)
	if err != nil {
		return "", err
	}
	return l.quarantine(hook)
}

// RemoveJournal deletes job id's journal and fsyncs the directory so the
// deletion is durable — a resurrected journal would make a restarted
// daemon replay a job that already finished. A missing file is not an
// error.
func (s *JobStore) RemoveJournal(id string) error { return s.remove(id, journalSuffix) }

// HasJournal reports whether a journal exists for job id.
func (s *JobStore) HasJournal(id string) bool { return s.has(id, journalSuffix) }

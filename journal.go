package ropsim

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"ropsim/internal/stats"
)

// journalSchema versions the journal line format; a bump invalidates
// old sidecars (Load rejects mismatched lines instead of resuming from
// incompatible results).
const journalSchema = 1

// JournalEntry is one checkpointed run: the config hash that keys it,
// the label it first completed under, and the full result. Capture
// timelines are never journaled (they are too heavy and are consumed
// live by the refresh-behaviour analysis), so Result.Capture is always
// nil here.
type JournalEntry struct {
	// Schema is the journal line format version.
	Schema int `json:"schema"`
	// Hash is the deterministic config hash (see ConfigHash).
	Hash string `json:"hash"`
	// Label is the run label that produced the entry.
	Label string `json:"label"`
	// Result is the completed run's outcome, metrics included.
	Result *Result `json:"result"`
}

// Journal is the campaign's run store: every completed, journal-eligible
// simulation is kept under its config hash, and a run whose hash is
// already stored is served instead of simulated again. The zero value is
// an in-memory store. OpenJournal adds a sidecar file: each entry is
// also appended to it as one JSON line and flushed to the OS before the
// run is reported, so a killed campaign keeps everything that finished,
// and reopening the same path (-resume) serves those runs again. A
// Journal is safe for concurrent use by parallel runner workers.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	entries  map[string]*JournalEntry
	inflight map[string]*flight
	hits     atomic.Int64
}

// flight is one run in progress; waiters on its hash block on done.
type flight struct {
	done chan struct{}
	res  *Result
	err  error
}

// OpenJournal opens (creating if needed) the journal sidecar at path
// and loads every complete entry already in it. A truncated final line
// — the signature of a campaign killed mid-append — is skipped, not an
// error. Entries written under a different journal or stats schema are
// ignored.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{f: f, entries: map[string]*JournalEntry{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e JournalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			continue // partial trailing line from a killed writer
		}
		if e.Schema != journalSchema || e.Result == nil ||
			e.Result.Metrics.Schema != stats.SchemaVersion {
			continue
		}
		j.entries[e.Hash] = &e
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	return j, nil
}

// Len reports the number of loaded plus newly recorded entries.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Hits reports how many runs were served from the store instead of
// simulated (repeats within the campaign plus, under -resume, runs
// loaded from the sidecar).
func (j *Journal) Hits() int64 { return j.hits.Load() }

// Lookup returns the checkpointed entry for a config hash. The entry
// is shared; callers must treat the result as read-only.
func (j *Journal) Lookup(hash string) (*JournalEntry, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[hash]
	if ok {
		j.hits.Add(1)
	}
	return e, ok
}

// Record stores one completed run under its config hash, appending the
// entry to the sidecar (when one is open) and flushing it before
// returning. Recording a hash that is already stored is a no-op
// (identical configs are deterministic, so the existing entry is
// equally valid).
func (j *Journal) Record(hash, label string, res *Result) error {
	if res.Capture != nil {
		return fmt.Errorf("journal: refusing to checkpoint capture-bearing run %q", label)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.entries[hash]; ok {
		return nil
	}
	e := &JournalEntry{Schema: journalSchema, Hash: hash, Label: label, Result: res}
	if j.f != nil {
		line, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		if _, err := j.f.Write(append(line, '\n')); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	if j.entries == nil {
		j.entries = map[string]*JournalEntry{}
	}
	j.entries[hash] = e
	return nil
}

// do returns the stored result for hash, or runs it and stores the
// result under label. Concurrent calls for one hash share a single run
// (singleflight): the first caller runs it on its own goroutine while
// the others wait. A failed run is not stored: its waiters get the
// error, and a later call runs it again. served reports that the result
// came from the store (or another caller's run) rather than this call.
func (j *Journal) do(hash, label string, run func() (*Result, error)) (res *Result, served bool, err error) {
	j.mu.Lock()
	if e, ok := j.entries[hash]; ok {
		j.mu.Unlock()
		j.hits.Add(1)
		return e.Result, true, nil
	}
	if f, ok := j.inflight[hash]; ok {
		j.mu.Unlock()
		<-f.done
		if f.err == nil {
			j.hits.Add(1)
		}
		return f.res, f.err == nil, f.err
	}
	// A panicking run leaves errRunPanicked for its waiters; the panic
	// itself reaches the runner, which reports it for this caller.
	f := &flight{done: make(chan struct{}), err: errRunPanicked}
	if j.inflight == nil {
		j.inflight = map[string]*flight{}
	}
	j.inflight[hash] = f
	j.mu.Unlock()
	defer func() {
		j.mu.Lock()
		delete(j.inflight, hash)
		j.mu.Unlock()
		close(f.done)
	}()

	if f.res, f.err = run(); f.err == nil {
		f.err = j.Record(hash, label, f.res)
	}
	return f.res, false, f.err
}

// errRunPanicked is what waiters on a run get when that run panicked.
var errRunPanicked = errors.New("journal: the shared run of this config panicked")

// Close flushes and closes the sidecar file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// ConfigHash derives the deterministic journal key of a run
// configuration. Robustness knobs that cannot change a run's outcome
// (the sanitizer, the watchdog thresholds) are excluded, so a campaign
// resumed with, say, a different -run-timeout still matches its
// journal. Configs carrying explicit trace streams hash their pointer
// representations and must not be journaled (the harness never does).
func ConfigHash(cfg Config) string {
	norm := cfg
	norm.Check = false
	norm.RunTimeout = 0
	norm.LivelockEvents = 0
	h := sha256.Sum256([]byte(fmt.Sprintf("ropsim-journal-v%d|stats-v%d|%+v",
		journalSchema, stats.SchemaVersion, norm)))
	return hex.EncodeToString(h[:])
}

package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Journal appends one JSON line per completed cell to a file, flushing as
// cells finish so an interrupted run loses at most the cell being written.
// It doubles as a Reporter: wire it into SuiteConfig.Observer (directly or
// via Multi) and every executed cell is journaled; resumed cells are not,
// so the journal of a resumed run lists exactly the cells it simulated.
type Journal struct {
	mu  sync.Mutex
	f   *os.File
	err error // first append error, reported by Err
}

// OpenJournal opens (creating directories and the file as needed) a
// journal for appending. Append-only opening means a resumed run extends
// the interrupted run's journal rather than truncating it. If the file
// ends in a torn line — a run killed mid-append — the tail is
// newline-terminated first so new records never concatenate onto it.
func OpenJournal(path string) (*Journal, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := terminateTornTail(f); err != nil {
		f.Close() //lint:allow errignore — already failing; a Close error would mask the root cause
		return nil, err
	}
	return &Journal{f: f}, nil
}

// terminateTornTail appends a newline when the file is non-empty and its
// last byte is not one.
func terminateTornTail(f *os.File) error {
	info, err := f.Stat()
	if err != nil {
		return err
	}
	if info.Size() == 0 {
		return nil
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, info.Size()-1); err != nil {
		return err
	}
	if last[0] != '\n' {
		if _, err := f.Write([]byte{'\n'}); err != nil {
			return err
		}
	}
	return nil
}

// Append writes one record as a single JSON line.
func (j *Journal) Append(r Record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(line); err != nil {
		if j.err == nil {
			j.err = err
		}
		return err
	}
	return nil
}

// Err returns the first append error, if any. The Reporter interface
// cannot propagate errors from CellDone; callers should check Err once
// the suite finishes.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close() //lint:allow errignore — already failing; a Close error would mask the Sync error
		return err
	}
	return j.f.Close()
}

// SuiteStart implements Reporter.
func (j *Journal) SuiteStart(Suite) {}

// CellStart implements Reporter.
func (j *Journal) CellStart(Cell) {}

// CellDone journals every executed (non-resumed) cell.
func (j *Journal) CellDone(r Record) {
	if r.Resumed {
		return
	}
	j.Append(r) //lint:allow errignore — Append records its first error for Err(); Reporter cannot propagate it
}

// SuiteDone syncs the journal so a completed suite is durable. A sync
// failure is recorded like an append failure, surfacing through Err.
func (j *Journal) SuiteDone(Summary) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil && j.err == nil {
		j.err = err
	}
}

// CanonicalJournal serializes a record set into a canonical byte form for
// equality comparison across runs: records sorted by cell identity, with
// the volatile fields — WallSeconds (wall-clock time) and Resumed (which
// run executed the cell) — cleared. Two runs of the same configuration are
// deterministic exactly when their canonical journals are byte-identical,
// regardless of worker count, completion order, or resume boundaries.
//
//lint:allow deadcode — the journal oracle the experiment fault tests compare runs with
func CanonicalJournal(recs map[string]Record) ([]byte, error) {
	keys := make([]string, 0, len(recs))
	for k := range recs {
		keys = append(keys, k)
	}
	ordered := make([]Record, 0, len(recs))
	for _, k := range keys {
		ordered = append(ordered, recs[k])
	}
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		if a.Set != b.Set {
			return a.Set < b.Set
		}
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		if a.ValueIndex != b.ValueIndex {
			return a.ValueIndex < b.ValueIndex
		}
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		return a.Key < b.Key
	})
	var out []byte
	for _, r := range ordered {
		r.WallSeconds = 0
		r.Resumed = false
		line, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out = append(out, line...)
		out = append(out, '\n')
	}
	return out, nil
}

// LoadJournal reads a journal back as a key → Record map for
// SuiteConfig.Resume, reporting how many complete records it found. Torn
// lines — the signature of a run killed mid-append — are skipped: at
// worst the interrupted cell is simulated again. When the same key
// appears more than once (a cell re-executed across appended runs), the
// last record wins.
func LoadJournal(path string) (map[string]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs := make(map[string]Record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil || r.Key == "" {
			continue
		}
		recs[r.Key] = r
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading journal %s: %w", path, err)
	}
	return recs, nil
}

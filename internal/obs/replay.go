package obs

import (
	"bufio"
	"bytes"
	"fmt"

	"repro/internal/metrics"
)

// SessionRecord is a parsed session journal: the header, every decision in
// journal order, and the final report line when the session was finalized
// before the journal was captured. It is the input to the service plane's
// replay migration — a worker rebuilds the live session by re-submitting
// each decision's job and byte-checking the replayed journal against the
// original (see internal/serve).
type SessionRecord struct {
	Header    SessionHeader
	Decisions []SessionDecision
	Final     *SessionFinal
}

// ParseSessionJournal parses NDJSON session-journal bytes back into a
// SessionRecord, line by line through OpenSessionJournal and Append. The
// format is strict — exactly one "session" header line first, then zero or
// more "decision" lines, then at most one "final" line with nothing after
// it — so a truncated or interleaved journal fails loudly instead of
// replaying into a silently different session.
func ParseSessionJournal(b []byte) (*SessionRecord, error) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	rec := &SessionRecord{}
	var j *SessionJournal
	for sc.Scan() {
		var err error
		if j == nil {
			if j, err = OpenSessionJournal(sc.Bytes()); err == nil {
				j.Observe(recorder{rec})
			}
		} else {
			err = j.Append(sc.Bytes())
		}
		if err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: scanning session journal: %w", err)
	}
	if j == nil {
		return nil, fmt.Errorf("obs: empty session journal")
	}
	rec.Header = j.Header()
	return rec, nil
}

// recorder is the observer that collects a parsed journal into its record.
type recorder struct{ rec *SessionRecord }

func (r recorder) JournalDecision(_ SessionHeader, d SessionDecision) {
	r.rec.Decisions = append(r.rec.Decisions, d)
}

func (r recorder) JournalFinal(_ SessionHeader, rep metrics.Report) {
	r.rec.Final = &SessionFinal{Kind: "final", Report: rep}
}

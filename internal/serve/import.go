package serve

import (
	"bytes"
	"fmt"

	"repro/internal/obs"
)

// ImportSession rebuilds a live session from its journal bytes by
// deterministic replay: a fresh driver is built from the header's
// parameterization (policy, model, machine, fault process), every
// journaled decision is re-submitted in order through the live submit
// path, and — when the journal carries a final line — the session is
// re-finalized. The replayed journal must reproduce the source byte for
// byte; any divergence aborts the import with the first differing line,
// because a session whose replayed decisions differ from what clients were
// already told is not the same session. Only then is the session
// registered under the header's ID, resuming exactly where the exporting
// worker stopped.
//
// This is the service plane's migration mechanism: rebalancing, draining,
// and crash recovery all move sessions as journal bytes and rely on this
// byte-check — the same determinism contract the offline scheduler.Run
// bridge pins.
func (s *Server) ImportSession(journal []byte) (string, error) {
	rec, err := obs.ParseSessionJournal(journal)
	if err != nil {
		return "", err
	}
	if rec.Header.ID == "" {
		return "", fmt.Errorf("serve: imported journal header has no session ID")
	}
	driver, header, err := buildDriver(rec.Header)
	if err != nil {
		return "", fmt.Errorf("serve: importing session %s: %w", rec.Header.ID, err)
	}
	header.ID = rec.Header.ID
	sess := &session{id: header.ID, driver: driver, journal: obs.NewSessionJournal(header), nextJob: 1}
	for _, d := range rec.Decisions {
		if _, _, err := sess.submit(SubmitJobRequest{
			ID: d.Job, Submit: d.Submit, Runtime: d.Runtime, Estimate: d.Estimate,
			Procs: d.Procs, Deadline: d.Deadline, Budget: d.Budget,
			PenaltyRate: d.PenaltyRate, HighUrgency: d.HighUrgency,
		}); err != nil {
			return "", fmt.Errorf("serve: replaying session %s job %d: %w", rec.Header.ID, d.Job, err)
		}
	}
	if rec.Final != nil {
		sess.journal.Final(driver.Finalize())
	}
	if err := sess.journal.Err(); err != nil {
		return "", fmt.Errorf("serve: replaying session %s: %w", rec.Header.ID, err)
	}
	if !bytes.Equal(sess.journal.Bytes(), journal) {
		return "", fmt.Errorf(
			"serve: replay of session %s diverged from its journal at line %d — refusing to import a session that is not bit-identical to the one exported",
			rec.Header.ID, firstDiffLine(sess.journal.Bytes(), journal))
	}
	// Catch the streaming risk engine up on the migrated session's verified
	// history, then attach it for live events — before the insert makes the
	// session reachable, so no event can slip between replay and attach. An
	// insert failure forgets the session scope; the aggregate scopes keep
	// the replayed history (those events really were ingested here).
	s.stream.IngestRecord(rec)
	sess.journal.Observe(s.stream)
	if err := s.store.insert(sess); err != nil {
		s.stream.ForgetSession(header.ID)
		return "", err
	}
	return header.ID, nil
}

// firstDiffLine returns the 1-based index of the first line where two
// journals differ.
func firstDiffLine(a, b []byte) int {
	la := bytes.Split(a, []byte("\n"))
	lb := bytes.Split(b, []byte("\n"))
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return i + 1
		}
	}
	return n + 1
}

package obs

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/metrics"
)

// SessionHeader is the first line of a service-session journal: the full
// parameterization of the simulation the session owns. Everything needed to
// replay the session offline is here — a scripted request stream plus this
// header reproduces the journal byte for byte (see internal/serve's
// determinism test).
type SessionHeader struct {
	Kind   string `json:"kind"` // always "session"
	ID     string `json:"id"`
	Policy string `json:"policy"`
	Model  string `json:"model"`
	Nodes  int    `json:"nodes"`
	// BasePrice is PBase in dollars per estimated-runtime second.
	BasePrice float64 `json:"base_price"`
	// Seed and FaultIntensity parameterize the deterministic fault process;
	// both are omitted when the session runs the paper's never-failing
	// machine.
	Seed           int64  `json:"seed,omitempty"`
	FaultIntensity string `json:"fault_intensity,omitempty"`
	// FaultHorizon is the virtual-time window the fault process is scaled
	// to, in seconds.
	FaultHorizon float64 `json:"fault_horizon,omitempty"`
}

// SessionDecision is one journal line per submission: the job's shape and
// QoS terms as admitted, and the service's synchronous answer — admission
// outcome and price quote.
type SessionDecision struct {
	Kind        string  `json:"kind"` // always "decision"
	Job         int     `json:"job"`
	Submit      float64 `json:"submit"`
	Runtime     float64 `json:"runtime"`
	Estimate    float64 `json:"estimate"`
	Procs       int     `json:"procs"`
	Deadline    float64 `json:"deadline"`
	Budget      float64 `json:"budget"`
	PenaltyRate float64 `json:"penalty_rate,omitempty"`
	HighUrgency bool    `json:"high_urgency,omitempty"`
	Admission   string  `json:"admission"`
	Quote       float64 `json:"quote"`
}

// SessionFinal is the journal's last line: the finalized objective report.
type SessionFinal struct {
	Kind   string         `json:"kind"` // always "final"
	Report metrics.Report `json:"report"`
}

// SessionJournal accumulates one service session's request stream as JSONL:
// a header line, one decision line per submission in request order, and a
// final report line once the session is drained. Every field is derived
// from the request stream and the deterministic simulation — no wall-clock,
// no iteration-order dependence — so two sessions fed the same scripted
// requests produce byte-identical journals.
//
// The session's worker authors its journal (NewSessionJournal, Decision,
// Final); a copy is kept from the authored lines (OpenSessionJournal,
// Append), which hold the journal's line rules.
//
// A SessionJournal is not safe for concurrent use; the serve layer guards
// it with the owning session's mutex.
type SessionJournal struct {
	buf       bytes.Buffer
	header    SessionHeader
	obs       SessionObserver
	lines     int   // lines appended, the header included
	finalized bool  // the final report line is in
	err       error // first marshal error, reported by Err
}

// SessionObserver receives journal events synchronously as they are
// appended, in journal order — the subscription hook the streaming risk
// engine (internal/streamrisk) ingests from. Callbacks run under whatever
// lock guards the journal (the owning session's mutex in the serve layer),
// so implementations must be fast and must never call back into the
// journal or its owner.
type SessionObserver interface {
	// JournalDecision is called after each decision line is appended, with
	// the journal's header and the line as written (Kind stamped).
	JournalDecision(h SessionHeader, d SessionDecision)
	// JournalFinal is called after the final report line is appended.
	JournalFinal(h SessionHeader, r metrics.Report)
}

// NewSessionJournal starts a journal with its header line. The Kind field
// is stamped; callers fill the rest.
func NewSessionJournal(h SessionHeader) *SessionJournal {
	h.Kind = "session"
	j := &SessionJournal{header: h}
	j.marshal(h)
	return j
}

// Header returns the journal's header line as written.
func (j *SessionJournal) Header() SessionHeader { return j.header }

// Observe attaches the observer (nil detaches). Events already journaled
// are not replayed; callers that need history feed the parsed record to the
// observer first (see serve's session import).
func (j *SessionJournal) Observe(o SessionObserver) { j.obs = o }

// Decision appends one submission's decision line and returns the line as
// written, without its newline (nil if it could not be marshaled; see Err).
// The Kind field is stamped.
func (j *SessionJournal) Decision(d SessionDecision) []byte {
	d.Kind = "decision"
	line := j.marshal(d)
	j.decided(d)
	return line
}

// Final appends the finalized report line and returns it as Decision does.
// The Kind field is stamped.
func (j *SessionJournal) Final(r metrics.Report) []byte {
	line := j.marshal(SessionFinal{Kind: "final", Report: r})
	j.settled(r)
	return line
}

// Finalized reports whether the journal took its final report.
func (j *SessionJournal) Finalized() bool { return j.finalized }

// OpenSessionJournal starts a journal from a header line another journal
// wrote, kept verbatim; Append adds the lines that follow it.
func OpenSessionJournal(headerLine []byte) (*SessionJournal, error) {
	j := &SessionJournal{}
	if err := j.decode(headerLine, &j.header); err != nil {
		return nil, err
	}
	if j.header.Kind != "session" {
		return nil, fmt.Errorf("obs: session journal starts with a %s line, want the session header", j.header.Kind)
	}
	j.write(headerLine)
	return j, nil
}

// entry is a decision or final line, decoded once: Kind says which.
type entry struct {
	SessionDecision
	Report metrics.Report `json:"report"`
}

// Append adds one decision or final line another journal wrote, verbatim
// — the control plane keeps a worker's lines this way, as its shadow —
// decoding it once for the observer. A line out of journal order (a second
// header, anything after the final report) is refused and leaves the
// journal as it was.
func (j *SessionJournal) Append(line []byte) error {
	var e entry
	if err := j.decode(line, &e); err != nil {
		return err
	}
	switch n := j.lines + 1; {
	case e.Kind == "session":
		return fmt.Errorf("obs: session journal line %d: header after line 1", n)
	case e.Kind != "decision" && e.Kind != "final":
		return fmt.Errorf("obs: session journal line %d: unknown kind %q", n, e.Kind)
	case j.finalized && e.Kind == "decision":
		return fmt.Errorf("obs: session journal line %d: decision after the final report", n)
	case j.finalized:
		return fmt.Errorf("obs: session journal line %d: second final report", n)
	}
	j.write(line)
	if e.Kind == "decision" {
		j.decided(e.SessionDecision)
	} else {
		j.settled(e.Report)
	}
	return nil
}

// decode decodes the journal's next line into v, refusing a blank line
// and a line break inside the line.
func (j *SessionJournal) decode(line []byte, v any) error {
	n := j.lines + 1
	if len(bytes.TrimSpace(line)) == 0 {
		return fmt.Errorf("obs: session journal line %d is empty", n)
	}
	if bytes.IndexByte(line, '\n') >= 0 {
		return fmt.Errorf("obs: session journal line %d holds a line break", n)
	}
	if err := json.Unmarshal(line, v); err != nil {
		return fmt.Errorf("obs: session journal line %d: %w", n, err)
	}
	return nil
}

func (j *SessionJournal) decided(d SessionDecision) {
	if j.obs != nil {
		j.obs.JournalDecision(j.header, d)
	}
}

func (j *SessionJournal) settled(r metrics.Report) {
	j.finalized = true
	if j.obs != nil {
		j.obs.JournalFinal(j.header, r)
	}
}

// marshal appends v as one line and returns the line. A value JSON cannot
// represent appends nothing; the first such error is kept for Err.
func (j *SessionJournal) marshal(v any) []byte {
	line, err := json.Marshal(v)
	if err != nil {
		if j.err == nil {
			j.err = err
		}
		return nil
	}
	j.write(line)
	return line
}

func (j *SessionJournal) write(line []byte) {
	j.buf.Write(line)     //lint:allow errignore — bytes.Buffer.Write is documented to always return a nil error
	j.buf.WriteByte('\n') //lint:allow errignore — bytes.Buffer.WriteByte is documented to always return a nil error
	j.lines++
}

// Bytes returns the journal so far as JSONL. The returned slice aliases the
// journal's buffer; callers must not retain it across further appends.
func (j *SessionJournal) Bytes() []byte { return j.buf.Bytes() }

// Err returns the first append error, if any. Marshaling the journal's
// plain struct lines cannot normally fail; a non-nil error means a
// non-finite float (NaN or Inf) reached a quote or report field.
func (j *SessionJournal) Err() error { return j.err }

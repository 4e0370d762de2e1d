package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"repro/internal/metrics"
)

// CreateSessionRequest parameterizes one simulation session. Policy and
// Model name a Table V pair (the registry refuses pairs the paper does not
// evaluate); Nodes and BasePrice default to the paper's machine (128 nodes,
// $1/s). Seed, FaultIntensity, and FaultHorizon configure the deterministic
// failure process; intensity none (the default) runs the paper's
// never-failing machine, and an enabled intensity requires an explicit
// horizon because an online session cannot know its workload's extent up
// front.
type CreateSessionRequest struct {
	// ID pins the session's identifier instead of letting the worker
	// allocate one. Only the control plane sets it — IDs must be unique
	// across the whole service plane, so standalone clients leave it empty
	// and take the worker-allocated ID from the response.
	ID             string  `json:"id,omitempty"`
	Policy         string  `json:"policy"`
	Model          string  `json:"model"`
	Nodes          int     `json:"nodes,omitempty"`
	BasePrice      float64 `json:"base_price,omitempty"`
	Seed           int64   `json:"seed,omitempty"`
	FaultIntensity string  `json:"fault_intensity,omitempty"`
	FaultHorizon   float64 `json:"fault_horizon,omitempty"`
}

// CreateSessionResponse echoes the session's resolved parameterization
// under its assigned ID.
type CreateSessionResponse struct {
	ID        string  `json:"id"`
	Policy    string  `json:"policy"`
	Model     string  `json:"model"`
	Nodes     int     `json:"nodes"`
	BasePrice float64 `json:"base_price"`
}

// SubmitJobRequest submits one job with its QoS terms. Submit is the
// absolute virtual submission time; Advance instead offsets from the
// session's current virtual time (exactly one may be set when nonzero).
// Submission times must be non-decreasing across the session, as in the
// batch trace. ID defaults to the next sequential job number, Estimate to
// Runtime, and Procs to 1.
type SubmitJobRequest struct {
	ID          int     `json:"id,omitempty"`
	Submit      float64 `json:"submit,omitempty"`
	Advance     float64 `json:"advance,omitempty"`
	Runtime     float64 `json:"runtime"`
	Estimate    float64 `json:"estimate,omitempty"`
	Procs       int     `json:"procs,omitempty"`
	Deadline    float64 `json:"deadline"`
	Budget      float64 `json:"budget"`
	PenaltyRate float64 `json:"penalty_rate,omitempty"`
	HighUrgency bool    `json:"high_urgency,omitempty"`
}

// maxClientValue bounds the magnitude of every money and time field a
// client submits, live or in an imported journal. Summed over as many
// decisions as a journal can hold, bounded values stay far inside
// float64's range, so no risk sum, report or stream delta can overflow to
// a value JSON cannot encode.
const maxClientValue = 1e15

// boundedField is one client-supplied money or time value under its JSON
// name.
type boundedField struct {
	name string
	v    float64
}

// outOfRange refuses the first field that is not finite or exceeds
// maxClientValue in magnitude, naming it.
func outOfRange(fields ...boundedField) error {
	for _, f := range fields {
		if !(math.Abs(f.v) <= maxClientValue) {
			return fmt.Errorf("serve: %s %v outside ±%g", f.name, f.v, maxClientValue)
		}
	}
	return nil
}

// checkBounds refuses a submit whose money or time field is out of range.
func (r SubmitJobRequest) checkBounds() error {
	return outOfRange(
		boundedField{"submit", r.Submit}, boundedField{"advance", r.Advance},
		boundedField{"runtime", r.Runtime}, boundedField{"estimate", r.Estimate},
		boundedField{"deadline", r.Deadline}, boundedField{"budget", r.Budget},
		boundedField{"penalty_rate", r.PenaltyRate},
	)
}

// SubmitJobResponse is the service's synchronous answer: the admission
// outcome ("accepted", "rejected", or "queued" under generous admission
// control), the price quote under the session's economic model, and the
// session's virtual time after the submission.
type SubmitJobResponse struct {
	Job       int     `json:"job"`
	Admission string  `json:"admission"`
	Quote     float64 `json:"quote"`
	Now       float64 `json:"now"`
}

// ReportResponse is the session's objective report — live mid-session, or
// final once finalized — plus the raw risk-analysis scores per objective.
type ReportResponse struct {
	ID        string             `json:"id"`
	Policy    string             `json:"policy"`
	Finalized bool               `json:"finalized"`
	Report    metrics.Report     `json:"report"`
	Risk      map[string]float64 `json:"risk"`
}

// HealthResponse is the /healthz body: liveness plus the capacity figures
// the control plane's prober reads (live sessions, the session cap, and
// whether the worker is draining).
type HealthResponse struct {
	Status      string `json:"status"`
	Sessions    int    `json:"sessions"`
	MaxSessions int    `json:"max_sessions"`
	Draining    bool   `json:"draining,omitempty"`
}

// ImportSessionResponse acknowledges a replayed session under the ID its
// journal header carried.
type ImportSessionResponse struct {
	ID string `json:"id"`
}

// maxJournalBytes bounds an imported journal body. A session journal is a
// header plus one short line per submission; 64 MiB is ~100k decisions.
const maxJournalBytes = 64 << 20

// MaxRequestBytes bounds every other request body, on a worker and on the
// control plane in front of it.
const MaxRequestBytes = 1 << 20

// JournalLineHeader names the response header in which a create, submit or
// finalize returns the journal line it appended, as written. The control
// plane keeps those lines verbatim as its shadow of the session's journal.
const JournalLineHeader = "Journal-Line"

// errorResponse is the JSON error envelope every non-2xx response carries.
type errorResponse struct {
	Error string `json:"error"`
}

// WriteJSON writes v with the given status. v is encoded before anything
// is sent, so a value JSON cannot represent (a non-finite float) answers
// 500 with the encoder's error instead of an empty success.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n')) //lint:allow errignore — headers are sent; nothing useful can follow a mid-body failure
}

// WriteError writes the JSON error envelope.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// ReadJSON strictly decodes the request body into v: unknown fields and
// trailing garbage are errors, so a mistyped field name fails loudly
// instead of silently falling back to a default.
func ReadJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

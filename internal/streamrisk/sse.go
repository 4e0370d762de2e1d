package streamrisk

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// The SSE protocol both risk daemons speak (riskserved per worker, riskctl
// fleet-wide), and riskwatch/riskload consume:
//
//	event: snapshot   data: Snapshot   — once, immediately on subscribe
//	event: delta      data: Delta      — per ingested journal event
//	event: resync     data: Snapshot   — after deltas were dropped on this
//	                                     subscriber's full buffer
//
// Consumers anchor on the latest snapshot/resync and discard any delta
// with Seq ≤ that anchor's Seq (publishes racing the subscribe can deliver
// duplicates below the anchor; nothing above it is ever silently lost).

// SSE event names.
const (
	EventSnapshot = "snapshot"
	EventDelta    = "delta"
	EventResync   = "resync"
)

// snapshotEvent replaces e's buffer with one SSE frame carrying s.
func (e *encoder) snapshotEvent(event string, s *Snapshot) {
	e.eventHead(event)
	e.snapshot(s)
	e.buf = append(e.buf, "\n\n"...)
}

// deltaEvent replaces e's buffer with one SSE frame carrying d.
func (e *encoder) deltaEvent(event string, d *Delta) {
	e.eventHead(event)
	e.delta(d)
	e.buf = append(e.buf, "\n\n"...)
}

func (e *encoder) eventHead(event string) {
	e.reset()
	e.buf = append(e.buf, "event: "...)
	e.buf = append(e.buf, event...)
	e.buf = append(e.buf, "\ndata: "...)
}

// writeEvent sends the frame in e's buffer, or the error that kept it from
// being encoded.
func (e *encoder) writeEvent(w io.Writer, event string) error {
	if e.err != nil {
		return fmt.Errorf("streamrisk: encoding %s event: %w", event, e.err)
	}
	if _, err := w.Write(e.buf); err != nil {
		return fmt.Errorf("streamrisk: writing %s event: %w", event, err)
	}
	return nil
}

// Event is one parsed SSE frame.
type Event struct {
	Event string
	Data  []byte
}

// EventReader incrementally parses an SSE byte stream (the frames the
// handlers write, plus ":" comment lines).
type EventReader struct {
	sc *bufio.Scanner
}

// NewEventReader wraps an SSE response body.
func NewEventReader(r io.Reader) *EventReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &EventReader{sc: sc}
}

// Next returns the next complete frame, or io.EOF when the stream ends
// cleanly between frames.
func (r *EventReader) Next() (Event, error) {
	var ev Event
	started := false
	for r.sc.Scan() {
		line := r.sc.Text()
		switch {
		case line == "":
			if started {
				return ev, nil
			}
		case strings.HasPrefix(line, "event: "):
			ev.Event = strings.TrimPrefix(line, "event: ")
			started = true
		case strings.HasPrefix(line, "data: "):
			ev.Data = append(ev.Data, strings.TrimPrefix(line, "data: ")...)
			started = true
		case strings.HasPrefix(line, ":"):
			// comment/heartbeat line, ignored
		default:
			return Event{}, fmt.Errorf("streamrisk: malformed SSE line %q", line)
		}
	}
	if err := r.sc.Err(); err != nil {
		return Event{}, err
	}
	if started {
		return Event{}, fmt.Errorf("streamrisk: SSE stream truncated mid-frame")
	}
	return Event{}, io.EOF
}

// filter narrows what a subscriber sees to one session or one policy
// (empty strings pass everything).
type filter struct {
	session, policy string
}

func filterFromQuery(r *http.Request) filter {
	q := r.URL.Query()
	return filter{session: q.Get("session"), policy: q.Get("policy")}
}

func (f filter) wantsDelta(d Delta) bool {
	if f.session != "" && d.Session != f.session {
		return false
	}
	if f.policy != "" && d.Policy != f.policy {
		return false
	}
	return true
}

// apply narrows a snapshot's scope lists in place (the Global scores stay:
// a per-session view still wants the store-wide context line).
func (f filter) apply(snap Snapshot) Snapshot {
	if f.session != "" {
		var keep []SessionScopeScores
		for _, s := range snap.Sessions {
			if s.ID == f.session {
				keep = append(keep, s)
			}
		}
		snap.Sessions = keep
	}
	if f.policy != "" {
		var keepP []ScopeScores
		for _, p := range snap.Policies {
			if p.Name == f.policy {
				keepP = append(keepP, p)
			}
		}
		snap.Policies = keepP
		var keepS []SessionScopeScores
		for _, s := range snap.Sessions {
			if s.Policy == f.policy {
				keepS = append(keepS, s)
			}
		}
		snap.Sessions = keepS
	}
	return snap
}

// SnapshotHandler serves the pull view: the engine snapshot as compact
// JSON, narrowed by optional ?session= / ?policy= query parameters.
// Mounted at GET /v1/risk by riskserved and riskctl. The body is encoded
// before the status is written, so a snapshot JSON cannot represent (a sum
// overflowed to ±Inf) answers 500 with the encoder's error, never a 200
// with an empty body.
func SnapshotHandler(e *Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		snap := filterFromQuery(r).apply(e.Snapshot())
		enc := encoders.Get().(*encoder)
		defer encoders.Put(enc)
		enc.reset()
		enc.snapshot(&snap)
		if enc.err != nil {
			http.Error(w, "streamrisk: encoding snapshot: "+enc.err.Error(), http.StatusInternalServerError)
			return
		}
		enc.buf = append(enc.buf, '\n')
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(enc.buf)))
		w.Write(enc.buf) //lint:allow errignore — the status is sent; a failed body write is the client's disconnect
	}
}

// encoders holds SnapshotHandler's buffers between reads; a buffer sized
// by one read serves the next without growing.
var encoders = sync.Pool{New: func() any { return new(encoder) }}

// StreamHandler serves the SSE view: snapshot-on-subscribe, then deltas,
// with a fresh resync snapshot whenever this subscriber's buffer dropped
// deltas. Mounted at GET /v1/risk/stream. The handler holds no engine or
// store locks while writing, so a slow or stalled consumer never blocks
// admission — it just drops and resyncs. Every frame of one connection is
// encoded into the same buffer.
func StreamHandler(e *Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		sub, err := e.Subscribe()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		defer e.Unsubscribe(sub)

		fil := filterFromQuery(r)
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		var enc encoder
		send := func(event string) bool {
			if err := enc.writeEvent(w, event); err != nil {
				return false
			}
			fl.Flush()
			return true
		}
		snap := fil.apply(sub.Snapshot())
		enc.snapshotEvent(EventSnapshot, &snap)
		if !send(EventSnapshot) {
			return
		}

		for {
			select {
			case <-r.Context().Done():
				return
			case d := <-sub.C():
				if sub.TakeDropped() {
					// Deltas were lost on our buffer; d may be stale relative
					// to what was dropped. Re-anchor with a fresh snapshot.
					snap := fil.apply(e.Snapshot())
					enc.snapshotEvent(EventResync, &snap)
					if !send(EventResync) {
						return
					}
					continue
				}
				if !fil.wantsDelta(d) {
					continue
				}
				enc.deltaEvent(EventDelta, &d)
				if !send(EventDelta) {
					return
				}
			}
		}
	}
}

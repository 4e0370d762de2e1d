package load

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/streamrisk"
)

// RiskStreamStats is the /v1/risk/stream subscriber probe's summary: what
// one SSE consumer saw while the load ran. Deltas carry the engine's
// strictly-increasing sequence numbers, so gaps in the delta stream are
// exactly the deltas this subscriber lost (dropped on its full buffer, or
// published before its anchor); resync frames count how often the server
// re-anchored it. EndLag is how far the consumer's last-seen sequence
// trailed the engine when the load finished — a loaded stream that keeps
// up ends with a small lag and few drops.
type RiskStreamStats struct {
	Snapshots   int64  `json:"snapshots"`
	Deltas      int64  `json:"deltas"`
	Resyncs     int64  `json:"resyncs"`
	DroppedSeen int64  `json:"dropped_deltas_seen"` // sequence-gap total across the stream
	LastSeq     uint64 `json:"last_seq"`            // highest sequence the stream delivered
	EndSeq      uint64 `json:"end_seq"`             // engine sequence from /v1/risk after the load
	EndLag      uint64 `json:"end_lag"`             // EndSeq - LastSeq (0 when the stream kept up)
	StreamError string `json:"stream_error,omitempty"`
}

// riskProbe is the in-flight subscriber; stop cancels it and result
// delivers the stats exactly once.
type riskProbe struct {
	stop   context.CancelFunc
	result chan RiskStreamStats
}

// probeClient dials the risk stream. It has no timeout: the run's Client
// carries an overall request timeout that would sever a long-lived SSE
// stream mid-run; the probe's lifetime is bounded by its context instead.
var probeClient = &http.Client{}

// startRiskProbe subscribes to the target's risk stream and consumes it
// until stopped, tracking sequence continuity. The probe is a normal slow
// consumer: it never blocks the engine, it just observes what the fan-out
// delivered.
//
// It returns once the anchor snapshot, or an error, has arrived, so the
// anchor precedes every decision the run causes and the deltas account
// for the whole sequence space the run produces. A target that accepts the
// subscription but sends no anchor within wait (0: no limit) does not hold
// the run back any longer.
func startRiskProbe(target string, wait time.Duration) *riskProbe {
	ctx, cancel := context.WithCancel(context.Background())
	p := &riskProbe{stop: cancel, result: make(chan RiskStreamStats, 1)}
	anchored := make(chan struct{})
	go func() {
		var st RiskStreamStats
		anchor := sync.OnceFunc(func() { close(anchored) })
		defer func() {
			anchor()
			p.result <- st
		}()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/v1/risk/stream", nil)
		if err != nil {
			st.StreamError = err.Error()
			return
		}
		resp, err := probeClient.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				st.StreamError = err.Error()
			}
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			st.StreamError = fmt.Sprintf("status %d", resp.StatusCode)
			return
		}
		r := streamrisk.NewEventReader(resp.Body)
		for {
			ev, err := r.Next()
			if err != nil {
				if ctx.Err() == nil {
					st.StreamError = err.Error()
				}
				return
			}
			switch ev.Event {
			case streamrisk.EventSnapshot, streamrisk.EventResync:
				var snap streamrisk.Snapshot
				if err := json.Unmarshal(ev.Data, &snap); err != nil {
					st.StreamError = err.Error()
					return
				}
				if ev.Event == streamrisk.EventSnapshot {
					st.Snapshots++
				} else {
					st.Resyncs++
				}
				if snap.Seq > st.LastSeq {
					st.LastSeq = snap.Seq
				}
				anchor()
			case streamrisk.EventDelta:
				var d streamrisk.Delta
				if err := json.Unmarshal(ev.Data, &d); err != nil {
					st.StreamError = err.Error()
					return
				}
				st.Deltas++
				if d.Seq > st.LastSeq {
					if st.LastSeq != 0 && d.Seq > st.LastSeq+1 {
						st.DroppedSeen += int64(d.Seq - st.LastSeq - 1)
					}
					st.LastSeq = d.Seq
				}
			}
		}
	}()
	var timeout <-chan time.Time
	if wait > 0 {
		timer := time.NewTimer(wait) //lint:allow wallclock — bounds how long a silent target can delay the run
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case <-anchored:
	case <-timeout:
	}
	return p
}

// finish stops the probe and settles EndSeq/EndLag against the pull
// endpoint's view of the engine.
func (p *riskProbe) finish(client *http.Client, target string) RiskStreamStats {
	p.stop()
	st := <-p.result
	resp, err := client.Get(target + "/v1/risk")
	if err != nil {
		if st.StreamError == "" {
			st.StreamError = err.Error()
		}
		return st
	}
	defer resp.Body.Close()
	var snap streamrisk.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		if st.StreamError == "" {
			st.StreamError = err.Error()
		}
		return st
	}
	st.EndSeq = snap.Seq
	if st.EndSeq > st.LastSeq {
		st.EndLag = st.EndSeq - st.LastSeq
	}
	return st
}

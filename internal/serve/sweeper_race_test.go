package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// parseID pulls the session ID out of a create response body. Errors are
// reported with Errorf so the helper is safe off the test goroutine.
func parseID(t *testing.T, body []byte) string {
	t.Helper()
	var cr CreateSessionResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Errorf("parsing create response %q: %v", body, err)
		return ""
	}
	return cr.ID
}

// fakeClock is a test clock advanced explicitly; the zero value reads as
// t0. It keeps operator time fully under the test's control so eviction
// windows open exactly when the test says so.
type fakeClock struct {
	nanos atomic.Int64
}

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.nanos.Load()) }
func (c *fakeClock) Advance(d time.Duration) { c.nanos.Add(int64(d)) }

// The in-flight guard's semantics, single-threaded: a session with a
// request between lookup and release is never evicted no matter how stale
// its last-used stamp, the idle clock restarts at release, and only then
// does idleness count again. This pins the fix for the sweeper-vs-Submit
// ordering bug: before the guard, a sweep racing a slow request could
// evict the session mid-request, so the client held a 200 whose decision
// no longer existed anywhere.
func TestSweeperSkipsInflightSession(t *testing.T) {
	const idle = time.Minute
	var clk fakeClock
	srv := New(Config{IdleTimeout: idle, Now: clk.Now})
	h := srv.Handler()
	var cr CreateSessionResponse
	mustDo(t, h, http.MethodPost, "/v1/sessions", CreateSessionRequest{Policy: "Libra", Model: "commodity"}, http.StatusCreated, &cr)

	// A request is in flight; the session's stamp goes stale under it.
	sess, ok := srv.store.get(cr.ID)
	if !ok {
		t.Fatal("session vanished")
	}
	clk.Advance(idle + time.Second)
	if evicted := srv.SweepIdle(); len(evicted) != 0 {
		t.Fatalf("sweep evicted %v under an in-flight request", evicted)
	}

	// Release restarts the idle clock: still not evictable.
	srv.store.release(sess)
	if evicted := srv.SweepIdle(); len(evicted) != 0 {
		t.Fatalf("sweep evicted %v immediately after release", evicted)
	}

	// Only genuine idleness after release evicts.
	clk.Advance(idle + time.Second)
	if evicted := srv.SweepIdle(); len(evicted) != 1 || evicted[0] != cr.ID {
		t.Fatalf("sweep after idle: evicted %v, want [%s]", evicted, cr.ID)
	}
	if srv.Sessions() != 0 {
		t.Fatalf("%d sessions live after eviction", srv.Sessions())
	}
}

// The strict guard invariant under -race, at the store level where the
// interleaving is controllable: holder goroutines keep a request open
// (get … release) while a clock advancer expires everything and a sweeper
// loops continuously. While a request is held, inflight > 0, so the
// session must never be evicted — the holder re-looks it up mid-hold and
// must get the same live instance back. Between requests, eviction is
// legitimate; the holder just reinserts. Disabling the inflight skip in
// sweepIdle makes this fail immediately: the sweep evicts under the held
// request and the mid-hold lookup comes back empty.
func TestSweeperInflightGuardStress(t *testing.T) {
	const (
		holders = 8
		iters   = 150
		idle    = time.Minute
	)
	var clk fakeClock
	st := newStore(holders, clk.Now)

	var stop atomic.Bool
	var aux sync.WaitGroup
	aux.Add(1)
	go func() { // expire everything, then sweep, constantly
		defer aux.Done()
		for !stop.Load() {
			clk.Advance(idle + time.Second)
			st.sweepIdle(idle)
		}
	}()

	var wg sync.WaitGroup
	for hld := 0; hld < holders; hld++ {
		wg.Add(1)
		go func(hld int) {
			defer wg.Done()
			id := fmt.Sprintf("h-%d", hld)
			for i := 0; i < iters; i++ {
				s, ok := st.get(id)
				if !ok {
					// Evicted between requests — legitimate; start over.
					if err := st.insert(&session{id: id, nextJob: 1}); err != nil {
						t.Errorf("holder %d: reinsert: %v", hld, err)
						return
					}
					continue
				}
				// Hold the request open across sweeps and clock jumps.
				runtime.Gosched()
				runtime.Gosched()
				s2, ok := st.get(id)
				if !ok || s2 != s {
					t.Errorf("holder %d iter %d: session evicted under an in-flight request (relookup ok=%v same=%v)", hld, i, ok, s2 == s)
					if ok {
						st.release(s2)
					}
					st.release(s)
					return
				}
				st.release(s2)
				st.release(s)
			}
		}(hld)
	}
	wg.Wait()
	stop.Store(true)
	aux.Wait()
}

// The same race end-to-end through the HTTP handlers: sessions are
// hammered with submits and journal reads while a sweeper loops and a
// clock advancer keeps every session looking expired. This is the -race
// exerciser for the full lookup→simulate→journal→release path; outcomes
// are only sanity-checked (a submit either lands or the session is gone)
// because with an adversarial clock, eviction between two requests is
// legitimate — the strict mid-request invariant lives in
// TestSweeperInflightGuardStress.
func TestSweeperSubmitRaceStress(t *testing.T) {
	const (
		drivers = 4
		iters   = 100
		idle    = time.Minute
	)
	var clk fakeClock
	srv := New(Config{IdleTimeout: idle, Now: clk.Now})
	h := srv.Handler()

	var stop atomic.Bool
	var aux sync.WaitGroup
	aux.Add(2)
	go func() {
		defer aux.Done()
		for !stop.Load() {
			clk.Advance(idle + time.Second)
			runtime.Gosched()
		}
	}()
	go func() {
		defer aux.Done()
		for !stop.Load() {
			srv.SweepIdle()
		}
	}()

	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			id := ""
			for i := 0; i < iters; i++ {
				if id == "" {
					w := do(t, h, http.MethodPost, "/v1/sessions", CreateSessionRequest{Policy: "FCFS-BF", Model: "commodity"})
					switch w.Code {
					case http.StatusCreated:
						id = parseID(t, w.Body.Bytes())
					case http.StatusServiceUnavailable:
						continue // shed by the concurrency limiter
					default:
						t.Errorf("driver %d: create: status %d: %s", d, w.Code, w.Body)
						return
					}
				}
				sub := do(t, h, http.MethodPost, "/v1/sessions/"+id+"/jobs", SubmitJobRequest{
					ID: i + 1, Advance: 1, Runtime: 10, Deadline: 100, Budget: 1000,
				})
				switch sub.Code {
				case http.StatusOK:
					if jw := do(t, h, http.MethodGet, "/v1/sessions/"+id+"/journal", nil); jw.Code == http.StatusOK {
						if want := fmt.Sprintf(`"job":%d,`, i+1); !strings.Contains(jw.Body.String(), want) {
							t.Errorf("driver %d iter %d: journal lost the acknowledged decision %s", d, i, want)
						}
					}
				case http.StatusNotFound:
					id = "" // evicted between requests; recreate
				case http.StatusServiceUnavailable:
					// shed by the concurrency limiter
				default:
					t.Errorf("driver %d iter %d: submit: status %d: %s", d, i, sub.Code, sub.Body)
				}
			}
		}(d)
	}
	wg.Wait()
	stop.Store(true)
	aux.Wait()
}

package control

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/qos"
	"repro/internal/serve"
	"repro/internal/workload"
)

// do drives the plane's handler in-process.
func do(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func mustDo(t *testing.T, h http.Handler, method, path string, body any, wantStatus int, out any) {
	t.Helper()
	w := do(t, h, method, path, body)
	if w.Code != wantStatus {
		t.Fatalf("%s %s: status %d, want %d: %s", method, path, w.Code, wantStatus, w.Body)
	}
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	}
}

// newWorker starts one data-plane worker over real HTTP.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(serve.New(serve.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// newFleet builds a plane with n registered workers. The workers are
// returned in registration order (named w-1..w-n).
func newFleet(t *testing.T, n int) (*Plane, []*httptest.Server) {
	t.Helper()
	p := New(Config{})
	workers := make([]*httptest.Server, n)
	for i := range workers {
		workers[i] = newWorker(t)
		mustDo(t, p.Handler(), http.MethodPost, "/control/v1/workers",
			RegisterWorkerRequest{Name: fmt.Sprintf("w-%d", i+1), URL: workers[i].URL},
			http.StatusCreated, nil)
	}
	return p, workers
}

func testTrace(t *testing.T, jobs int, seed int64) []*workload.Job {
	t.Helper()
	synth := workload.DefaultSynthConfig()
	synth.Jobs = jobs
	trace, err := workload.Generate(synth, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := qos.Synthesize(trace, qos.DefaultConfig(seed+1)); err != nil {
		t.Fatal(err)
	}
	return trace
}

func submitReq(j *workload.Job) serve.SubmitJobRequest {
	return serve.SubmitJobRequest{
		ID: j.ID, Submit: j.Submit, Runtime: j.Runtime, Estimate: j.Estimate,
		Procs: j.Procs, Deadline: j.Deadline, Budget: j.Budget,
		PenaltyRate: j.PenaltyRate, HighUrgency: j.HighUrgency,
	}
}

// createSession places one session through the plane and returns its ID.
func createSession(t *testing.T, p *Plane, create serve.CreateSessionRequest) string {
	t.Helper()
	var cr serve.CreateSessionResponse
	mustDo(t, p.Handler(), http.MethodPost, "/v1/sessions", create, http.StatusCreated, &cr)
	if cr.ID == "" {
		t.Fatal("create returned no session ID")
	}
	return cr.ID
}

// finishSession finalizes and fetches the journal, returning both bodies.
func finishSession(t *testing.T, h http.Handler, id string) (report, journal []byte) {
	t.Helper()
	fin := do(t, h, http.MethodPost, "/v1/sessions/"+id+"/finalize", nil)
	if fin.Code != http.StatusOK {
		t.Fatalf("finalize %s: status %d: %s", id, fin.Code, fin.Body)
	}
	jw := do(t, h, http.MethodGet, "/v1/sessions/"+id+"/journal", nil)
	if jw.Code != http.StatusOK {
		t.Fatalf("journal %s: status %d: %s", id, jw.Code, jw.Body)
	}
	return fin.Body.Bytes(), jw.Body.Bytes()
}

// referenceRun drives the same session (same pinned ID) on a fresh
// standalone worker, bypassing the control plane entirely.
func referenceRun(t *testing.T, id string, create serve.CreateSessionRequest, jobs []*workload.Job) (report, journal []byte) {
	t.Helper()
	h := serve.New(serve.Config{}).Handler()
	create.ID = id
	mustDo(t, h, http.MethodPost, "/v1/sessions", create, http.StatusCreated, nil)
	for _, j := range jobs {
		mustDo(t, h, http.MethodPost, "/v1/sessions/"+id+"/jobs", submitReq(j), http.StatusOK, nil)
	}
	return finishSession(t, h, id)
}

// ownerOf reads a session's current worker (white-box).
func ownerOf(t *testing.T, p *Plane, id string) string {
	t.Helper()
	p.mu.Lock()
	rt := p.routes[id]
	p.mu.Unlock()
	if rt == nil {
		t.Fatalf("no route for %s", id)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.worker
}

// The plane is transparent: sessions driven through a 4-worker fleet
// produce reports and journals byte-identical to the same sessions driven
// against a standalone worker, and the shadow journal the plane keeps is
// byte-identical to the journal the worker wrote.
func TestPlaneTransparencyAcrossFleet(t *testing.T) {
	p, _ := newFleet(t, 4)
	h := p.Handler()
	const sessions = 8
	create := serve.CreateSessionRequest{Policy: "Libra", Model: "commodity"}
	owners := make(map[string]bool)
	for s := 0; s < sessions; s++ {
		jobs := testTrace(t, 25, int64(100+s))
		id := createSession(t, p, create)
		for _, j := range jobs {
			mustDo(t, h, http.MethodPost, "/v1/sessions/"+id+"/jobs", submitReq(j), http.StatusOK, nil)
		}
		rep, jr := finishSession(t, h, id)
		repRef, jrRef := referenceRun(t, id, create, jobs)
		if !bytes.Equal(rep, repRef) {
			t.Errorf("session %s: plane report diverged from standalone run:\nplane:      %s\nstandalone: %s", id, rep, repRef)
		}
		if !bytes.Equal(jr, jrRef) {
			t.Errorf("session %s: plane journal diverged from standalone run", id)
		}

		// The shadow journal must be byte-identical to the worker's.
		p.mu.Lock()
		rt := p.routes[id]
		p.mu.Unlock()
		rt.mu.Lock()
		shadow := append([]byte(nil), rt.shadow.Bytes()...)
		rt.mu.Unlock()
		if !bytes.Equal(shadow, jr) {
			t.Errorf("session %s: shadow journal diverged from the worker's:\nshadow:\n%s\nworker:\n%s", id, shadow, jr)
		}
		owners[ownerOf(t, p, id)] = true
	}
	if len(owners) < 2 {
		t.Errorf("8 sessions all landed on %d worker(s); placement is not spreading", len(owners))
	}
	var top TopologyResponse
	mustDo(t, h, http.MethodGet, "/control/v1/topology", nil, http.StatusOK, &top)
	if len(top.Workers) != 4 {
		t.Fatalf("topology lists %d workers, want 4", len(top.Workers))
	}
	total := 0
	for _, w := range top.Workers {
		if !w.Healthy {
			t.Errorf("worker %s unhealthy in a healthy fleet", w.Name)
		}
		total += w.Sessions
	}
	if total != sessions || top.Sessions != sessions {
		t.Errorf("topology counts %d routed / %d summed sessions, want %d", top.Sessions, total, sessions)
	}
}

// Killing a worker mid-session must be invisible: the next request
// recovers the session from its shadow journal onto a surviving worker
// and the final report and journal stay byte-identical to an
// uninterrupted standalone run.
func TestPlaneCrashRecovery(t *testing.T) {
	p, workers := newFleet(t, 3)
	h := p.Handler()
	create := serve.CreateSessionRequest{Policy: "Libra+$", Model: "commodity"}
	jobs := testTrace(t, 30, 42)
	id := createSession(t, p, create)
	for _, j := range jobs[:17] {
		mustDo(t, h, http.MethodPost, "/v1/sessions/"+id+"/jobs", submitReq(j), http.StatusOK, nil)
	}

	// Kill the session's worker without any goodbye.
	owner := ownerOf(t, p, id)
	for i, w := range workers {
		if fmt.Sprintf("w-%d", i+1) == owner {
			w.Close()
		}
	}

	for _, j := range jobs[17:] {
		mustDo(t, h, http.MethodPost, "/v1/sessions/"+id+"/jobs", submitReq(j), http.StatusOK, nil)
	}
	if newOwner := ownerOf(t, p, id); newOwner == owner {
		t.Fatalf("session still routed to the dead worker %s", owner)
	}
	rep, jr := finishSession(t, h, id)
	repRef, jrRef := referenceRun(t, id, create, jobs)
	if !bytes.Equal(rep, repRef) {
		t.Errorf("recovered report diverged from uninterrupted run:\nrecovered:     %s\nuninterrupted: %s", rep, repRef)
	}
	if !bytes.Equal(jr, jrRef) {
		t.Errorf("recovered journal diverged from uninterrupted run:\nrecovered:\n%s\nuninterrupted:\n%s", jr, jrRef)
	}

	var top TopologyResponse
	mustDo(t, h, http.MethodGet, "/control/v1/topology", nil, http.StatusOK, &top)
	for _, w := range top.Workers {
		if w.Name == owner && w.Healthy {
			t.Errorf("dead worker %s still marked healthy", owner)
		}
	}
}

// A worker that restarts under its own name comes back empty, and the
// plane still names it the session's owner, so no reconcile moves the
// session: the next request reaches a worker that answers 404. The plane
// rebuilds the session there from its shadow journal, retries, and keeps
// the worker healthy; the run stays byte-identical to an uninterrupted one.
func TestPlaneRecoversSessionFromRestartedWorker(t *testing.T) {
	p, _ := newFleet(t, 1)
	h := p.Handler()
	create := serve.CreateSessionRequest{Policy: "Libra+$", Model: "commodity"}
	jobs := testTrace(t, 20, 42)
	id := createSession(t, p, create)
	for _, j := range jobs[:10] {
		mustDo(t, h, http.MethodPost, "/v1/sessions/"+id+"/jobs", submitReq(j), http.StatusOK, nil)
	}

	restarted := newWorker(t)
	mustDo(t, h, http.MethodPost, "/control/v1/workers",
		RegisterWorkerRequest{Name: "w-1", URL: restarted.URL}, http.StatusCreated, nil)
	for _, j := range jobs[10:] {
		mustDo(t, h, http.MethodPost, "/v1/sessions/"+id+"/jobs", submitReq(j), http.StatusOK, nil)
	}
	rep, jr := finishSession(t, h, id)
	repRef, jrRef := referenceRun(t, id, create, jobs)
	if !bytes.Equal(rep, repRef) {
		t.Errorf("recovered report diverged from uninterrupted run:\nrecovered:     %s\nuninterrupted: %s", rep, repRef)
	}
	if !bytes.Equal(jr, jrRef) {
		t.Errorf("recovered journal diverged from uninterrupted run:\nrecovered:\n%s\nuninterrupted:\n%s", jr, jrRef)
	}
	var top TopologyResponse
	mustDo(t, h, http.MethodGet, "/control/v1/topology", nil, http.StatusOK, &top)
	if len(top.Workers) != 1 || !top.Workers[0].Healthy {
		t.Errorf("a worker that answered 404 was declared dead: %+v", top.Workers)
	}
}

// A worker evicts a session left idle past its timeout while the plane
// still routes it. A DELETE through the plane then meets a 404, rebuilds
// the session from the shadow and deletes it there: the client gets the
// final report a standalone DELETE gives, and the route and the session's
// risk scope go, its final counted.
func TestPlaneDeleteAfterIdleEviction(t *testing.T) {
	var clock atomic.Int64
	srv := serve.New(serve.Config{IdleTimeout: time.Minute, Now: func() time.Time { return time.Unix(0, clock.Load()) }})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	p := New(Config{})
	h := p.Handler()
	mustDo(t, h, http.MethodPost, "/control/v1/workers", RegisterWorkerRequest{Name: "w-1", URL: ts.URL}, http.StatusCreated, nil)
	create := serve.CreateSessionRequest{Policy: "Libra+$", Model: "commodity"}
	jobs := testTrace(t, 8, 7)
	id := createSession(t, p, create)
	for _, j := range jobs {
		mustDo(t, h, http.MethodPost, "/v1/sessions/"+id+"/jobs", submitReq(j), http.StatusOK, nil)
	}
	clock.Store(int64(2 * time.Minute))
	if evicted := srv.SweepIdle(); len(evicted) != 1 || evicted[0] != id {
		t.Fatalf("worker evicted %v, want [%s]", evicted, id)
	}

	del := do(t, h, http.MethodDelete, "/v1/sessions/"+id, nil)
	if del.Code != http.StatusOK {
		t.Fatalf("DELETE after eviction: status %d: %s", del.Code, del.Body)
	}
	ref := serve.New(serve.Config{}).Handler()
	create.ID = id
	mustDo(t, ref, http.MethodPost, "/v1/sessions", create, http.StatusCreated, nil)
	for _, j := range jobs {
		mustDo(t, ref, http.MethodPost, "/v1/sessions/"+id+"/jobs", submitReq(j), http.StatusOK, nil)
	}
	if refDel := do(t, ref, http.MethodDelete, "/v1/sessions/"+id, nil); !bytes.Equal(del.Body.Bytes(), refDel.Body.Bytes()) {
		t.Errorf("DELETE body diverged from a standalone DELETE:\nplane:      %s\nstandalone: %s", del.Body, refDel.Body)
	}
	if n := p.Sessions(); n != 0 {
		t.Errorf("%d routes left after the DELETE, want 0", n)
	}
	if snap := p.risk.Snapshot(); len(snap.Sessions) != 0 || snap.Global.Finals != 1 {
		t.Errorf("risk view after the DELETE: %d sessions, %d finals; want 0 and 1", len(snap.Sessions), snap.Global.Finals)
	}
}

// The prober declares a silent worker dead after the configured number of
// consecutive failures and proactively re-places its sessions, so clients
// that were not mid-request never even see the crash.
func TestPlaneProberRecoversSessions(t *testing.T) {
	p, workers := newFleet(t, 2)
	h := p.Handler()
	create := serve.CreateSessionRequest{Policy: "FCFS-BF", Model: "commodity"}
	jobs := testTrace(t, 12, 7)

	// Spread a few sessions; find one on each worker.
	ids := make([]string, 6)
	for i := range ids {
		ids[i] = createSession(t, p, create)
		for _, j := range jobs[:4] {
			mustDo(t, h, http.MethodPost, "/v1/sessions/"+ids[i]+"/jobs", submitReq(j), http.StatusOK, nil)
		}
	}
	workers[0].Close()

	if dead := p.ProbeOnce(); len(dead) != 0 {
		t.Fatalf("first failed probe already declared %v dead; want the second to", dead)
	}
	if dead := p.ProbeOnce(); len(dead) != 1 || dead[0] != "w-1" {
		t.Fatalf("second failed probe declared %v dead, want [w-1]", dead)
	}
	// Every session must now be routed to the survivor and finish with
	// bytes identical to an uninterrupted run.
	for _, id := range ids {
		if owner := ownerOf(t, p, id); owner != "w-2" {
			t.Errorf("session %s routed to %s after recovery, want w-2", id, owner)
		}
		for _, j := range jobs[4:] {
			mustDo(t, h, http.MethodPost, "/v1/sessions/"+id+"/jobs", submitReq(j), http.StatusOK, nil)
		}
		rep, _ := finishSession(t, h, id)
		repRef, _ := referenceRun(t, id, create, jobs)
		if !bytes.Equal(rep, repRef) {
			t.Errorf("session %s: post-probe report diverged:\ngot:  %s\nwant: %s", id, rep, repRef)
		}
	}
}

// A worker that forward has already marked dead is still declared by the
// probe that counts its cfg.ProbeFailures-th consecutive failure, and the
// reconcile that follows moves every session left on it, not only the one
// whose request found it gone.
func TestPlaneProberDeclaresWorkerForwardMarkedDead(t *testing.T) {
	p, workers := newFleet(t, 3)
	h := p.Handler()
	ids := make([]string, 9)
	var onW1 []string
	for i := range ids {
		ids[i] = createSession(t, p, serve.CreateSessionRequest{Policy: "Libra", Model: "commodity"})
		if ownerOf(t, p, ids[i]) == "w-1" {
			onW1 = append(onW1, ids[i])
		}
	}
	if len(onW1) < 2 {
		t.Fatalf("w-1 owns %v; the test needs two sessions there", onW1)
	}
	workers[0].Close()
	mustDo(t, h, http.MethodGet, "/v1/sessions/"+onW1[0]+"/report", nil, http.StatusOK, nil)

	var dead []string
	for i := 0; i < p.cfg.ProbeFailures; i++ {
		dead = p.ProbeOnce()
	}
	if len(dead) != 1 || dead[0] != "w-1" {
		t.Errorf("probe %d declared %v dead, want [w-1]", p.cfg.ProbeFailures, dead)
	}
	for _, id := range ids {
		if owner := ownerOf(t, p, id); owner == "w-1" {
			t.Errorf("session %s still routed to w-1 after the prober's failures", id)
		}
		mustDo(t, h, http.MethodGet, "/v1/sessions/"+id+"/report", nil, http.StatusOK, nil)
	}
}

// Draining moves every session off the worker via release/import and the
// drained worker refuses new placements; deregistering removes it from
// the topology entirely.
func TestPlaneDrainAndDeregister(t *testing.T) {
	p, _ := newFleet(t, 3)
	h := p.Handler()
	create := serve.CreateSessionRequest{Policy: "Libra", Model: "bid"}
	jobs := testTrace(t, 15, 13)
	ids := make([]string, 6)
	for i := range ids {
		ids[i] = createSession(t, p, create)
		for _, j := range jobs[:7] {
			mustDo(t, h, http.MethodPost, "/v1/sessions/"+ids[i]+"/jobs", submitReq(j), http.StatusOK, nil)
		}
	}
	victim := ownerOf(t, p, ids[0])
	var top TopologyResponse
	mustDo(t, h, http.MethodPost, "/control/v1/workers/"+victim+"/drain", nil, http.StatusOK, &top)
	for _, w := range top.Workers {
		if w.Name == victim {
			if !w.Draining {
				t.Errorf("worker %s not marked draining", victim)
			}
			if w.Sessions != 0 {
				t.Errorf("worker %s still owns %d sessions after drain", victim, w.Sessions)
			}
		}
	}
	// Every session still completes with reference bytes.
	for _, id := range ids {
		if owner := ownerOf(t, p, id); owner == victim {
			t.Errorf("session %s still routed to drained worker", id)
		}
		for _, j := range jobs[7:] {
			mustDo(t, h, http.MethodPost, "/v1/sessions/"+id+"/jobs", submitReq(j), http.StatusOK, nil)
		}
		rep, _ := finishSession(t, h, id)
		repRef, _ := referenceRun(t, id, create, jobs)
		if !bytes.Equal(rep, repRef) {
			t.Errorf("session %s: post-drain report diverged", id)
		}
	}
	mustDo(t, h, http.MethodDelete, "/control/v1/workers/"+victim, nil, http.StatusOK, &top)
	if len(top.Workers) != 2 {
		t.Errorf("topology lists %d workers after deregister, want 2", len(top.Workers))
	}
}

// A worker joining the fleet takes over only the sessions placement hands
// it (minimal movement), transparently to clients.
func TestPlaneJoinRebalances(t *testing.T) {
	p, _ := newFleet(t, 2)
	h := p.Handler()
	create := serve.CreateSessionRequest{Policy: "SJF-BF", Model: "commodity"}
	jobs := testTrace(t, 14, 29)
	const sessions = 10
	ids := make([]string, sessions)
	before := make(map[string]string)
	for i := range ids {
		ids[i] = createSession(t, p, create)
		for _, j := range jobs[:6] {
			mustDo(t, h, http.MethodPost, "/v1/sessions/"+ids[i]+"/jobs", submitReq(j), http.StatusOK, nil)
		}
		before[ids[i]] = ownerOf(t, p, ids[i])
	}

	w3 := newWorker(t)
	mustDo(t, h, http.MethodPost, "/control/v1/workers",
		RegisterWorkerRequest{Name: "w-3", URL: w3.URL}, http.StatusCreated, nil)

	moved := 0
	for _, id := range ids {
		after := ownerOf(t, p, id)
		if after != before[id] {
			moved++
			if after != "w-3" {
				t.Errorf("session %s moved %s→%s on join; only moves to the joiner are minimal", id, before[id], after)
			}
		}
	}
	if moved == sessions {
		t.Errorf("every session moved on join; movement is not minimal")
	}
	for _, id := range ids {
		for _, j := range jobs[6:] {
			mustDo(t, h, http.MethodPost, "/v1/sessions/"+id+"/jobs", submitReq(j), http.StatusOK, nil)
		}
		rep, _ := finishSession(t, h, id)
		repRef, _ := referenceRun(t, id, create, jobs)
		if !bytes.Equal(rep, repRef) {
			t.Errorf("session %s: post-join report diverged", id)
		}
	}
}

// Plane-level request validation.
func TestPlaneValidation(t *testing.T) {
	p := New(Config{})
	h := p.Handler()
	// No workers: placement is impossible.
	if w := do(t, h, http.MethodPost, "/v1/sessions", serve.CreateSessionRequest{Policy: "Libra", Model: "commodity"}); w.Code != http.StatusServiceUnavailable {
		t.Errorf("create with no workers: status %d, want 503", w.Code)
	}
	// Clients may not pin session IDs through the plane.
	if w := do(t, h, http.MethodPost, "/v1/sessions", serve.CreateSessionRequest{ID: "x", Policy: "Libra", Model: "commodity"}); w.Code != http.StatusBadRequest {
		t.Errorf("create with pinned ID: status %d, want 400", w.Code)
	}
	// Unknown sessions 404 on every session-scoped route.
	for _, probe := range []struct{ method, path string }{
		{http.MethodPost, "/v1/sessions/nope/jobs"},
		{http.MethodGet, "/v1/sessions/nope/report"},
		{http.MethodGet, "/v1/sessions/nope/journal"},
		{http.MethodPost, "/v1/sessions/nope/finalize"},
		{http.MethodDelete, "/v1/sessions/nope"},
	} {
		if w := do(t, h, probe.method, probe.path, nil); w.Code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", probe.method, probe.path, w.Code)
		}
	}
	// Registration needs both fields; unknown workers 404 on admin routes.
	if w := do(t, h, http.MethodPost, "/control/v1/workers", RegisterWorkerRequest{Name: "w"}); w.Code != http.StatusBadRequest {
		t.Errorf("register without URL: status %d, want 400", w.Code)
	}
	if w := do(t, h, http.MethodPost, "/control/v1/workers/nope/drain", nil); w.Code != http.StatusNotFound {
		t.Errorf("drain unknown worker: status %d, want 404", w.Code)
	}
	if w := do(t, h, http.MethodDelete, "/control/v1/workers/nope", nil); w.Code != http.StatusNotFound {
		t.Errorf("deregister unknown worker: status %d, want 404", w.Code)
	}
	// Worker-side validation errors pass through the plane untouched.
	p2, _ := newFleet(t, 1)
	id := createSession(t, p2, serve.CreateSessionRequest{Policy: "Libra", Model: "commodity"})
	if w := do(t, p2.Handler(), http.MethodPost, "/v1/sessions/"+id+"/jobs", serve.SubmitJobRequest{Runtime: -1, Deadline: 1, Budget: 1}); w.Code != http.StatusBadRequest {
		t.Errorf("invalid submit through plane: status %d, want 400", w.Code)
	}
	// A session deleted through the plane is forgotten by both layers.
	mustDo(t, p2.Handler(), http.MethodDelete, "/v1/sessions/"+id, nil, http.StatusOK, nil)
	if w := do(t, p2.Handler(), http.MethodGet, "/v1/sessions/"+id+"/report", nil); w.Code != http.StatusNotFound {
		t.Errorf("report after delete: status %d, want 404", w.Code)
	}
}

// refusingWorker starts a data-plane worker that answers every session
// import 500 while refuse is set.
func refusingWorker(t *testing.T, refuse *atomic.Bool) *httptest.Server {
	t.Helper()
	inner := serve.New(serve.Config{}).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if refuse.Load() && r.URL.Path == "/worker/v1/sessions/import" {
			http.Error(w, "import refused", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// A failed move must not lose the session. The plane imports on the
// destination before it releases the source, so when the destination
// refuses the import, the session keeps answering on its old owner and
// finishes with the bytes of an uninterrupted standalone run.
func TestPlaneFailedMoveKeepsSession(t *testing.T) {
	p := New(Config{})
	h := p.Handler()
	var refuse atomic.Bool
	refuse.Store(true)
	for i, url := range []string{newWorker(t).URL, refusingWorker(t, &refuse).URL} {
		mustDo(t, h, http.MethodPost, "/control/v1/workers",
			RegisterWorkerRequest{Name: fmt.Sprintf("w-%d", i+1), URL: url}, http.StatusCreated, nil)
	}

	create := serve.CreateSessionRequest{Policy: "Libra", Model: "commodity"}
	jobs := testTrace(t, 20, 61)
	var id string
	for i := 0; i < 16 && id == ""; i++ {
		if cand := createSession(t, p, create); ownerOf(t, p, cand) == "w-1" {
			id = cand
		}
	}
	if id == "" {
		t.Fatal("placement put no session on w-1")
	}
	for _, j := range jobs[:10] {
		mustDo(t, h, http.MethodPost, "/v1/sessions/"+id+"/jobs", submitReq(j), http.StatusOK, nil)
	}

	if err := p.DrainWorker("w-1"); err != nil {
		t.Fatal(err)
	}
	if owner := ownerOf(t, p, id); owner != "w-1" {
		t.Fatalf("session %s routed to %s after a refused import, want it left on w-1", id, owner)
	}
	mustDo(t, h, http.MethodGet, "/v1/sessions/"+id+"/report", nil, http.StatusOK, nil)
	for _, j := range jobs[10:] {
		mustDo(t, h, http.MethodPost, "/v1/sessions/"+id+"/jobs", submitReq(j), http.StatusOK, nil)
	}
	_, jr := finishSession(t, h, id)
	_, jrRef := referenceRun(t, id, create, jobs)
	if !bytes.Equal(jr, jrRef) {
		t.Errorf("session %s: journal after a failed move diverged from the uninterrupted run:\ngot:\n%s\nwant:\n%s", id, jr, jrRef)
	}
}

// A failed placement is retried by the next reconcile, whichever
// membership change runs it. w-2 refuses imports while a drain empties
// w-1, so the sessions placement hands w-2 stay on w-1. Once w-2 accepts
// again, draining w-3 leaves w-2 the only eligible worker, and every session
// moves there, the ones the first drain left on w-1 included, and
// finishes with the bytes of an uninterrupted run.
func TestPlaneReconcileRetriesFailedMove(t *testing.T) {
	p := New(Config{})
	h := p.Handler()
	var refuse atomic.Bool
	refuse.Store(true)
	for i, url := range []string{newWorker(t).URL, refusingWorker(t, &refuse).URL, newWorker(t).URL} {
		mustDo(t, h, http.MethodPost, "/control/v1/workers",
			RegisterWorkerRequest{Name: fmt.Sprintf("w-%d", i+1), URL: url}, http.StatusCreated, nil)
	}
	create := serve.CreateSessionRequest{Policy: "Libra", Model: "commodity"}
	jobs := testTrace(t, 12, 5)
	ids := make([]string, 12)
	for i := range ids {
		ids[i] = createSession(t, p, create)
		for _, j := range jobs[:6] {
			mustDo(t, h, http.MethodPost, "/v1/sessions/"+ids[i]+"/jobs", submitReq(j), http.StatusOK, nil)
		}
	}

	if err := p.DrainWorker("w-1"); err != nil {
		t.Fatal(err)
	}
	stranded := 0
	for _, id := range ids {
		if ownerOf(t, p, id) == "w-1" {
			stranded++
		}
	}
	if stranded == 0 {
		t.Fatal("w-2 refused no move off w-1; the test needs one")
	}
	refuse.Store(false)
	if err := p.DrainWorker("w-3"); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if owner := ownerOf(t, p, id); owner != "w-2" {
			t.Errorf("session %s routed to %s after w-3's drain, want w-2, the only eligible worker", id, owner)
		}
	}
	for _, id := range ids {
		for _, j := range jobs[6:] {
			mustDo(t, h, http.MethodPost, "/v1/sessions/"+id+"/jobs", submitReq(j), http.StatusOK, nil)
		}
		_, jr := finishSession(t, h, id)
		_, jrRef := referenceRun(t, id, create, jobs)
		if !bytes.Equal(jr, jrRef) {
			t.Errorf("session %s: journal after a retried move diverged from the uninterrupted run:\ngot:\n%s\nwant:\n%s", id, jr, jrRef)
		}
	}
}

// countingTransport records every worker request the plane sends, as
// "METHOD host/path".
type countingTransport struct {
	mu   sync.Mutex
	reqs []string
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.reqs = append(c.reqs, r.Method+" "+r.URL.Host+r.URL.Path)
	c.mu.Unlock()
	return http.DefaultTransport.RoundTrip(r)
}

// take returns the requests recorded since the last take.
func (c *countingTransport) take() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	reqs := c.reqs
	c.reqs = nil
	return reqs
}

// The worker round trips behind each plane operation: the create, each
// submit and the finalize are one request apiece to the session's owner
// (the worker answers with the journal line the shadow keeps), and a move
// off a healthy worker is two, an import on the owner, then a release
// on the source (the shadow is what gets imported). A session routed to a
// dead worker is placed with the import alone: neither a forward's
// recovery nor a join's reconcile sends the dead worker anything.
func TestPlaneWorkerRequestCounts(t *testing.T) {
	ct := &countingTransport{}
	p := New(Config{Client: &http.Client{Transport: ct}})
	h := p.Handler()
	servers := make(map[string]*httptest.Server)
	register := func(name string) {
		t.Helper()
		servers[name] = newWorker(t)
		mustDo(t, h, http.MethodPost, "/control/v1/workers",
			RegisterWorkerRequest{Name: name, URL: servers[name].URL}, http.StatusCreated, nil)
	}
	host := func(name string) string { return strings.TrimPrefix(servers[name].URL, "http://") }
	register("w-1")
	register("w-2")
	ct.take()
	expect := func(op string, want ...string) {
		t.Helper()
		if got := ct.take(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: worker requests %q, want %q", op, got, want)
		}
	}
	// owners maps each session to its owner on a plane whose only workers
	// are the given members.
	owners := func(ids []string, members ...string) map[string]string {
		t.Helper()
		return ownersOf(placementPlane(t, members...), ids)
	}
	jobs := testTrace(t, 3, 17)
	ids := make([]string, 6) // s-1..s-6: creation order is session-ID order
	for i := range ids {
		ids[i] = createSession(t, p, serve.CreateSessionRequest{Policy: "Libra", Model: "commodity"})
		owner := host(ownerOf(t, p, ids[i]))
		expect("create", "POST "+owner+"/v1/sessions")
		path := "/v1/sessions/" + ids[i] + "/jobs"
		mustDo(t, h, http.MethodPost, path, submitReq(jobs[0]), http.StatusOK, nil)
		expect("submit", "POST "+owner+path)
	}
	path := "/v1/sessions/" + ids[0] + "/finalize"
	mustDo(t, h, http.MethodPost, path, nil, http.StatusOK, nil)
	expect("finalize", "POST "+host(ownerOf(t, p, ids[0]))+path)

	victim := ownerOf(t, p, ids[0])
	keeper := map[string]string{"w-1": "w-2", "w-2": "w-1"}[victim]
	want := []string{"POST " + host(victim) + "/worker/v1/drain"}
	for _, id := range ids { // the drain moves sessions in ID order
		if ownerOf(t, p, id) == victim {
			want = append(want, "POST "+host(keeper)+"/worker/v1/sessions/import", "POST "+host(victim)+"/worker/v1/sessions/"+id+"/release")
		}
	}
	if err := p.DrainWorker(victim); err != nil {
		t.Fatal(err)
	}
	expect("drain", want...)

	// A join moves to the joiner the sessions it now owns.
	register("w-3")
	owner := owners(ids, keeper, "w-3")
	want = nil
	var onW3 []string
	for _, id := range ids {
		if owner[id] == "w-3" {
			onW3 = append(onW3, id)
			want = append(want, "POST "+host("w-3")+"/worker/v1/sessions/import", "POST "+host(keeper)+"/worker/v1/sessions/"+id+"/release")
		}
	}
	expect("join of w-3", want...)
	if len(onW3) < 2 {
		t.Fatalf("the join moved %v to w-3; the test needs two sessions there", onW3)
	}

	// w-3 dies. One forward finds it unreachable, marks it dead and
	// recovers that one session onto the keeper; the others stay routed
	// to the dead worker.
	servers["w-3"].Close()
	path = "/v1/sessions/" + onW3[0] + "/report"
	mustDo(t, h, http.MethodGet, path, nil, http.StatusOK, nil)
	expect("forward to the dead w-3", "GET "+host("w-3")+path,
		"POST "+host(keeper)+"/worker/v1/sessions/import", "GET "+host(keeper)+path)

	// A join then places every session left on the dead worker with an
	// import alone, and moves off the keeper what the joiner now owns.
	recovered, migrated := recoveries.Value(), migrations.Value()
	dead := make(map[string]bool)
	for _, id := range onW3[1:] {
		dead[id] = true
	}
	register("w-4")
	owner = owners(ids, keeper, "w-4")
	want = nil
	var wantRecovered, wantMigrated int64
	for _, id := range ids {
		switch {
		case dead[id]:
			want = append(want, "POST "+host(owner[id])+"/worker/v1/sessions/import")
			wantRecovered++
		case owner[id] == "w-4":
			want = append(want, "POST "+host("w-4")+"/worker/v1/sessions/import", "POST "+host(keeper)+"/worker/v1/sessions/"+id+"/release")
			wantMigrated++
		}
	}
	expect("join of w-4 with w-3 dead", want...)
	if got := recoveries.Value() - recovered; got != wantRecovered {
		t.Errorf("the join counted %d recoveries, want %d", got, wantRecovered)
	}
	if got := migrations.Value() - migrated; got != wantMigrated {
		t.Errorf("the join counted %d migrations, want %d", got, wantMigrated)
	}
	for _, id := range ids {
		if got := ownerOf(t, p, id); got != owner[id] {
			t.Errorf("session %s routed to %s after the join, want its owner %s", id, got, owner[id])
		}
	}
}

// A worker's success the shadow cannot record is never passed on. A
// stub worker answers every create 201 and every other request 200 with
// the Journal-Line each step sets; a missing line, a line the shadow
// refuses, or a header line naming another session gets the client a
// 502, leaves the shadow as it was, and registers no route.
func TestPlaneRefusesUnrecordedSuccess(t *testing.T) {
	var mu sync.Mutex
	var line string
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if line != "" {
			w.Header().Set(serve.JournalLineHeader, line)
		}
		mu.Unlock()
		status := http.StatusOK
		if r.URL.Path == "/v1/sessions" {
			status = http.StatusCreated
		}
		w.WriteHeader(status)
		w.Write([]byte("{}\n"))
	}))
	t.Cleanup(stub.Close)
	p := New(Config{})
	if err := p.Register("stub", stub.URL); err != nil {
		t.Fatal(err)
	}
	header := func(id string) string {
		return `{"kind":"session","id":"` + id + `","policy":"Libra","model":"commodity","nodes":8,"base_price":1}`
	}
	decision := `{"kind":"decision","job":1,"submit":0,"runtime":1,"estimate":1,"procs":1,"deadline":2,"budget":3,"admission":"accepted","quote":1}`
	final := `{"kind":"final","report":{}}`
	create, submit, finalize := "/v1/sessions", "/v1/sessions/s-4/jobs", "/v1/sessions/s-4/finalize"
	steps := []struct {
		name, path, line string
		want             int
	}{
		{"create without a line", create, "", http.StatusBadGateway}, // s-1
		{"create with a decision line", create, decision, http.StatusBadGateway},
		{"create naming another session", create, header("s-99"), http.StatusBadGateway},
		{"create", create, header("s-4"), http.StatusCreated},
		{"submit without a line", submit, "", http.StatusBadGateway},
		{"submit with a line that is not JSON", submit, "not json", http.StatusBadGateway},
		{"submit with a second header", submit, header("s-4"), http.StatusBadGateway},
		{"submit", submit, decision, http.StatusOK},
		{"finalize without a line", finalize, "", http.StatusBadGateway},
		{"finalize", finalize, final, http.StatusOK},
		{"finalize again", finalize, "", http.StatusOK},
		{"submit after the final report", submit, decision, http.StatusBadGateway},
	}
	var want []byte
	for _, st := range steps {
		mu.Lock()
		line = st.line
		mu.Unlock()
		var body any
		if st.path == create {
			body = serve.CreateSessionRequest{Policy: "Libra", Model: "commodity"}
		}
		if w := do(t, p.Handler(), http.MethodPost, st.path, body); w.Code != st.want {
			t.Fatalf("%s: status %d, want %d: %s", st.name, w.Code, st.want, w.Body)
		}
		if st.want != http.StatusBadGateway && st.line != "" {
			want = append(want, st.line+"\n"...)
		}
		if len(want) == 0 {
			if got := p.Sessions(); got != 0 {
				t.Fatalf("%s: %d routes registered, want none", st.name, got)
			}
			continue
		}
		p.mu.Lock()
		shadow := p.routes["s-4"].shadow
		p.mu.Unlock()
		if !bytes.Equal(shadow.Bytes(), want) {
			t.Errorf("%s: shadow\n%s\nwant\n%s", st.name, shadow.Bytes(), want)
		}
	}
}

// The plane relays the worker's Content-Type: a journal read through the
// plane answers application/x-ndjson, as the worker does.
func TestPlaneRelaysJournalContentType(t *testing.T) {
	p, _ := newFleet(t, 2)
	id := createSession(t, p, serve.CreateSessionRequest{Policy: "Libra", Model: "commodity"})
	w := do(t, p.Handler(), http.MethodGet, "/v1/sessions/"+id+"/journal", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("journal: status %d: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("journal through the plane has Content-Type %q, want application/x-ndjson", got)
	}
}

// A worker's 503 reaches the client with its Retry-After: a create the
// owner sheds because its registry is full tells the client when to retry,
// through the plane as straight at the worker.
func TestPlaneRelaysRetryAfter(t *testing.T) {
	ts := httptest.NewServer(serve.New(serve.Config{MaxSessions: 1}).Handler())
	t.Cleanup(ts.Close)
	p := New(Config{})
	if err := p.Register("w-1", ts.URL); err != nil {
		t.Fatal(err)
	}
	create := serve.CreateSessionRequest{Policy: "Libra", Model: "commodity"}
	createSession(t, p, create)
	w := do(t, p.Handler(), http.MethodPost, "/v1/sessions", create)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("create on a full worker: status %d, want 503: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Errorf("503 through the plane has Retry-After %q, want 1", got)
	}
	if got := w.Header().Get("Content-Type"); got != "application/json" {
		t.Errorf("503 through the plane has Content-Type %q, want application/json", got)
	}
}

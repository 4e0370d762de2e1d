package control

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// The plane's own health endpoint reports the fleet and route counts.
func TestPlaneHealthz(t *testing.T) {
	p, _ := newFleet(t, 2)
	createSession(t, p, serve.CreateSessionRequest{Policy: "Libra", Model: "commodity"})
	var h HealthResponse
	mustDo(t, p.Handler(), http.MethodGet, "/healthz", nil, http.StatusOK, &h)
	if h.Status != "ok" || h.Workers != 2 || h.Sessions != 1 {
		t.Errorf("healthz = %+v, want ok/2 workers/1 session", h)
	}
	if got := p.Sessions(); got != 1 {
		t.Errorf("Sessions() = %d, want 1", got)
	}
}

// The prober loop declares a silent worker dead and recovers its
// sessions onto the survivor without any explicit ProbeOnce call.
func TestPlaneRunProberLoop(t *testing.T) {
	p, workers := newFleet(t, 2)
	id := createSession(t, p, serve.CreateSessionRequest{Policy: "Libra", Model: "commodity", Nodes: 16})
	victim := ownerOf(t, p, id)
	workers[0].Close()
	workers[1].Close()
	// Restart only the non-owner so recovery has somewhere to go.
	survivorIdx := 0
	if victim == "w-1" {
		survivorIdx = 1
	}
	survivor := newWorker(t)
	mustDo(t, p.Handler(), http.MethodPost, "/control/v1/workers",
		RegisterWorkerRequest{Name: []string{"w-1", "w-2"}[survivorIdx], URL: survivor.URL},
		http.StatusCreated, nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); p.RunProber(ctx, time.Millisecond) }()
	deadline := time.Now().Add(10 * time.Second) //lint:allow wallclock — liveness bound on a real prober loop under test
	for ownerOf(t, p, id) == victim {
		if time.Now().After(deadline) { //lint:allow wallclock — liveness bound on a real prober loop under test
			t.Fatal("prober never recovered the session off the dead worker")
		}
		time.Sleep(time.Millisecond) //lint:allow wallclock — polling a real prober loop under test
	}
	cancel()
	<-done
	// The session still serves through the plane after recovery.
	mustDo(t, p.Handler(), http.MethodGet, "/v1/sessions/"+id+"/report", nil, http.StatusOK, nil)
}

// Re-registration revives a dead worker deliberately: placement takes it
// back and rebalancing rebuilds any sessions it now owns from shadows.
func TestPlaneReRegistrationRevives(t *testing.T) {
	p, workers := newFleet(t, 2)
	ids := make([]string, 4)
	for i := range ids {
		ids[i] = createSession(t, p, serve.CreateSessionRequest{Policy: "EDF-BF", Model: "commodity"})
	}
	workers[0].Close()
	p.cfg.ProbeFailures = 1
	if dead := p.ProbeOnce(); len(dead) != 1 || dead[0] != "w-1" {
		t.Fatalf("ProbeOnce declared %v dead, want [w-1]", dead)
	}
	for _, w := range p.Topology().Workers {
		if w.Name == "w-1" && w.Healthy {
			t.Fatal("w-1 still healthy after being declared dead")
		}
	}
	// A fresh process takes over the name at a new URL.
	replacement := newWorker(t)
	if err := p.Register("w-1", replacement.URL); err != nil {
		t.Fatal(err)
	}
	for _, w := range p.Topology().Workers {
		if w.Name == "w-1" && !w.Healthy {
			t.Fatal("w-1 not revived by re-registration")
		}
	}
	// Every session answers, wherever the reconcile put it.
	for _, id := range ids {
		mustDo(t, p.Handler(), http.MethodGet, "/v1/sessions/"+id+"/report", nil, http.StatusOK, nil)
	}
	// Direct Register validation.
	if err := p.Register("", replacement.URL); err == nil {
		t.Error("Register with empty name succeeded")
	}
	if err := p.Register("w-9", ""); err == nil {
		t.Error("Register with empty URL succeeded")
	}
}

// With every worker unreachable, creates and recoveries answer 503 with
// a plain error rather than hanging or panicking.
func TestPlaneAllWorkersDead(t *testing.T) {
	p, workers := newFleet(t, 2)
	id := createSession(t, p, serve.CreateSessionRequest{Policy: "Libra", Model: "commodity"})
	tr := testTrace(t, 3, 11)
	workers[0].Close()
	workers[1].Close()
	w := do(t, p.Handler(), http.MethodPost, "/v1/sessions", serve.CreateSessionRequest{Policy: "Libra", Model: "commodity"})
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("create with a dead fleet: status %d, want 503: %s", w.Code, w.Body)
	}
	w = do(t, p.Handler(), http.MethodPost, "/v1/sessions/"+id+"/jobs", submitReq(tr[0]))
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("submit with a dead fleet: status %d, want 503: %s", w.Code, w.Body)
	}
	w = do(t, p.Handler(), http.MethodGet, "/v1/sessions/"+id+"/report", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("report with a dead fleet: status %d, want 503: %s", w.Code, w.Body)
	}
	w = do(t, p.Handler(), http.MethodPost, "/v1/sessions/"+id+"/finalize", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("finalize with a dead fleet: status %d, want 503: %s", w.Code, w.Body)
	}
	w = do(t, p.Handler(), http.MethodDelete, "/v1/sessions/"+id, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("delete with a dead fleet: status %d, want 503: %s", w.Code, w.Body)
	}
}

// Malformed request bodies are refused up front: invalid JSON, unknown
// fields, and trailing garbage all answer 400 before any forwarding.
func TestPlaneRequestDecoding(t *testing.T) {
	p, _ := newFleet(t, 1)
	id := createSession(t, p, serve.CreateSessionRequest{Policy: "Libra", Model: "commodity"})
	for _, body := range []string{"{", `{"policy": "Libra"} trailing`, `{"nope": 1}`} {
		req := httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(body))
		w := httptest.NewRecorder()
		p.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("create with body %q: status %d, want 400", body, w.Code)
		}
		req = httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/jobs", strings.NewReader(body))
		w = httptest.NewRecorder()
		p.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("submit with body %q: status %d, want 400", body, w.Code)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/control/v1/workers", strings.NewReader("{"))
	w := httptest.NewRecorder()
	p.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Errorf("register with invalid JSON: status %d, want 400", w.Code)
	}
}

// The shadow journal reproduces the worker's parameter defaulting:
// a submission with no estimate and no width journals estimate=runtime,
// procs=1 on both sides.
func TestPlaneShadowAppliesDefaults(t *testing.T) {
	p, _ := newFleet(t, 1)
	id := createSession(t, p, serve.CreateSessionRequest{Policy: "Libra+$", Model: "commodity", Nodes: 8})
	mustDo(t, p.Handler(), http.MethodPost, "/v1/sessions/"+id+"/jobs",
		serve.SubmitJobRequest{Submit: 0, Runtime: 100, Deadline: 400, Budget: 1000}, http.StatusOK, nil)
	_, journal := finishSession(t, p.Handler(), id)
	p.mu.Lock()
	shadow := p.routes[id].shadow.Bytes()
	p.mu.Unlock()
	if !bytes.Equal(shadow, journal) {
		t.Errorf("shadow journal diverged from worker journal on defaulted submission:\nshadow:\n%s\nworker:\n%s", shadow, journal)
	}
}

package control

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/obs"
	"repro/internal/serve"
)

func (p *Plane) handleHealthz(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	workers := len(p.workers)
	sessions := len(p.routes)
	p.mu.Unlock()
	serve.WriteJSON(w, http.StatusOK, HealthResponse{Status: "ok", Workers: workers, Sessions: sessions})
}

func (p *Plane) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterWorkerRequest
	if err := serve.ReadJSON(r, &req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if err := p.Register(req.Name, req.URL); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	serve.WriteJSON(w, http.StatusCreated, p.Topology())
}

func (p *Plane) handleDeregister(w http.ResponseWriter, r *http.Request) {
	if err := p.Deregister(r.PathValue("name")); err != nil {
		serve.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, p.Topology())
}

func (p *Plane) handleDrainWorker(w http.ResponseWriter, r *http.Request) {
	if err := p.DrainWorker(r.PathValue("name")); err != nil {
		serve.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, p.Topology())
}

func (p *Plane) handleTopology(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, p.Topology())
}

// handleCreate places a new session: the plane allocates the ID, ownerFor
// picks the owner, and the create is forwarded with the ID pinned. The
// shadow journal opens on the header line the worker answers with, so the
// plane never re-derives parameter defaults.
func (p *Plane) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req serve.CreateSessionRequest
	if err := serve.ReadJSON(r, &req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.ID != "" {
		serve.WriteError(w, http.StatusBadRequest, "the control plane assigns session IDs; leave id empty")
		return
	}
	id := fmt.Sprintf("s-%d", p.nextID.Add(1))
	req.ID = id
	body, err := json.Marshal(req)
	if err != nil {
		serve.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// A worker dying mid-create is survivable: mark it dead and place the
	// session on the ID's next owner.
	for attempt := 0; attempt < 3; attempt++ {
		owner := p.ownerFor(id)
		url, _ := p.workerURL(owner) // no worker is named ""
		if url == "" {
			serve.WriteError(w, http.StatusServiceUnavailable, "no healthy workers")
			return
		}
		rep, err := p.do(http.MethodPost, url+"/v1/sessions", body)
		if err != nil {
			p.markDead(owner)
			continue
		}
		if rep.status != http.StatusCreated {
			proxy(w, rep)
			return
		}
		shadow, err := obs.OpenSessionJournal(rep.line)
		if err == nil && shadow.Header().ID != id {
			err = fmt.Errorf("header line names session %q", shadow.Header().ID)
		}
		if err != nil {
			serve.WriteError(w, http.StatusBadGateway, "worker %s created session %s without a journal line the shadow accepts: %v", owner, id, err)
			return
		}
		shadow.Observe(p.risk)
		p.mu.Lock()
		p.routes[id] = &route{id: id, worker: owner, shadow: shadow}
		p.mu.Unlock()
		sessionsCreated.Add(1)
		proxy(w, rep)
		return
	}
	serve.WriteError(w, http.StatusServiceUnavailable, "no worker accepted the session")
}

// routeOr404 resolves the session route or writes the 404.
func (p *Plane) routeOr404(w http.ResponseWriter, r *http.Request) *route {
	id := r.PathValue("id")
	p.mu.Lock()
	rt := p.routes[id]
	p.mu.Unlock()
	if rt == nil {
		serve.WriteError(w, http.StatusNotFound, "no session %s", id)
	}
	return rt
}

// record appends the journal line a worker answered a success with to the
// session's shadow. A success the shadow cannot record is not passed on:
// the client gets a 502 and the shadow stays as it was. Caller holds
// rt.mu.
func record(w http.ResponseWriter, rt *route, rep reply) bool {
	err := rt.shadow.Append(rep.line)
	if err != nil {
		serve.WriteError(w, http.StatusBadGateway, "worker %s answered %d without a journal line the shadow accepts: %v", rt.worker, rep.status, err)
	}
	return err == nil
}

// handleSubmit forwards a job submission as the client sent it and appends
// the worker's decision line to the session's shadow journal.
func (p *Plane) handleSubmit(w http.ResponseWriter, r *http.Request) {
	rt := p.routeOr404(w, r)
	if rt == nil {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, serve.MaxRequestBytes))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rep, ok := p.forward(w, rt, r, body)
	if !ok {
		return
	}
	if rep.status == http.StatusOK {
		if !record(w, rt, rep) {
			return
		}
		jobsForwarded.Add(1)
	}
	proxy(w, rep)
}

// handleProxy forwards read-only session requests (report, journal)
// verbatim.
func (p *Plane) handleProxy(w http.ResponseWriter, r *http.Request) {
	rt := p.routeOr404(w, r)
	if rt == nil {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rep, ok := p.forward(w, rt, r, nil); ok {
		proxy(w, rep)
	}
}

// handleFinalize forwards the finalize and appends the worker's final
// report line to the shadow. Finalize is idempotent worker-side: only the
// first one appends a line, so only a shadow without one expects it.
func (p *Plane) handleFinalize(w http.ResponseWriter, r *http.Request) {
	rt := p.routeOr404(w, r)
	if rt == nil {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rep, ok := p.forward(w, rt, r, nil)
	if !ok || (rep.status == http.StatusOK && !rt.shadow.Finalized() && !record(w, rt, rep)) {
		return
	}
	proxy(w, rep)
}

// handleDelete forwards the delete and drops the route. A delete finalizes
// a session not yet finalized, so, as in handleFinalize, a shadow without
// a final line appends the one the worker answered with before the route
// and its risk scope go. The worker has removed the session either way, so
// the route is dropped even when that line cannot be recorded (a 502).
func (p *Plane) handleDelete(w http.ResponseWriter, r *http.Request) {
	rt := p.routeOr404(w, r)
	if rt == nil {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rep, ok := p.forward(w, rt, r, nil)
	if !ok {
		return
	}
	if rep.status == http.StatusOK {
		recorded := rt.shadow.Finalized() || record(w, rt, rep)
		p.mu.Lock()
		delete(p.routes, rt.id)
		p.mu.Unlock()
		p.risk.ForgetSession(rt.id)
		if !recorded {
			return
		}
	}
	proxy(w, rep)
}

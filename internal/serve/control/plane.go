package control

import (
	"bytes"
	"context"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/streamrisk"
)

// Config parameterizes the control plane.
type Config struct {
	// Client issues all worker requests (default: 10s overall timeout).
	Client *http.Client
	// ProbeFailures is how many consecutive failed health probes declare a
	// worker dead (default 2).
	ProbeFailures int
	// RiskWindow is the fleet risk engine's sliding-window size in decisions
	// (streamrisk.DefaultWindow if 0).
	RiskWindow int
	// MaxRiskSubscribers bounds concurrent /v1/risk/stream subscribers
	// (streamrisk.DefaultMaxSubscribers if 0).
	MaxRiskSubscribers int
}

func (c Config) withDefaults() Config {
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 10 * time.Second}
	}
	if c.ProbeFailures <= 0 {
		c.ProbeFailures = 2
	}
	return c
}

// worker is the plane's record of one data-plane process. All fields are
// guarded by the plane's mutex.
type worker struct {
	name     string
	url      string
	healthy  bool
	draining bool
	// failures counts consecutive failed health probes.
	failures int
}

// route is one session's placement: its current owner and the shadow
// journal — the owner's own journal lines, kept verbatim as each create,
// submit and finalize returns them. Every placement imports the shadow on
// the destination (see place). mu serializes the session's
// forwarded requests (held across the worker round-trip on purpose — that
// is what keeps the shadow in request order); see the package comment for
// the lock discipline.
type route struct {
	id string

	mu     sync.Mutex
	worker string
	shadow *obs.SessionJournal
}

// Plane is the control plane: the worker registry, which also decides
// placement (see ownerFor), and the session route table. Its streaming
// risk engine observes every session's shadow journal, so the plane
// serves the same /v1/risk surface as a worker — fleet-wide, across
// migrations and recoveries.
type Plane struct {
	cfg  Config
	mux  *http.ServeMux
	risk *streamrisk.Engine

	nextID atomic.Int64

	mu      sync.Mutex
	workers map[string]*worker
	routes  map[string]*route
}

// New builds a Plane with its routes mounted.
func New(cfg Config) *Plane {
	cfg = cfg.withDefaults()
	p := &Plane{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		risk:    streamrisk.NewEngine(streamrisk.Config{Window: cfg.RiskWindow, MaxSubscribers: cfg.MaxRiskSubscribers}),
		workers: make(map[string]*worker),
		routes:  make(map[string]*route),
	}
	p.mux.HandleFunc("GET /healthz", p.handleHealthz)
	p.mux.Handle("GET /debug/vars", expvar.Handler())
	p.mux.HandleFunc("POST /control/v1/workers", p.handleRegister)
	p.mux.HandleFunc("DELETE /control/v1/workers/{name}", p.handleDeregister)
	p.mux.HandleFunc("POST /control/v1/workers/{name}/drain", p.handleDrainWorker)
	p.mux.HandleFunc("GET /control/v1/topology", p.handleTopology)
	p.mux.HandleFunc("POST /v1/sessions", p.handleCreate)
	p.mux.HandleFunc("POST /v1/sessions/{id}/jobs", p.handleSubmit)
	p.mux.HandleFunc("GET /v1/sessions/{id}/report", p.handleProxy)
	p.mux.HandleFunc("GET /v1/sessions/{id}/journal", p.handleProxy)
	p.mux.HandleFunc("POST /v1/sessions/{id}/finalize", p.handleFinalize)
	p.mux.HandleFunc("DELETE /v1/sessions/{id}", p.handleDelete)
	p.mux.HandleFunc("GET /v1/risk", streamrisk.SnapshotHandler(p.risk))
	p.mux.HandleFunc("GET /v1/risk/stream", streamrisk.StreamHandler(p.risk))
	return p
}

// Handler returns the plane's root handler.
func (p *Plane) Handler() http.Handler { return p.mux }

// Sessions returns the number of routed sessions.
func (p *Plane) Sessions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.routes)
}

// do issues one worker request and reads the full response.
func (p *Plane) do(method, url string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := p.cfg.Client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return reply{}, err
	}
	return reply{
		status: resp.StatusCode, body: out, line: []byte(resp.Header.Get(serve.JournalLineHeader)),
		contentType: resp.Header.Get("Content-Type"), retryAfter: resp.Header.Get("Retry-After"),
	}, nil
}

// Register adds (or revives) a worker and reconciles. Rendezvous placement
// keeps that minimal: besides sessions a dead worker or a failed placement
// left off their owner, only sessions the joiner now owns move.
func (p *Plane) Register(name, url string) error {
	if name == "" || url == "" {
		return fmt.Errorf("control: worker registration needs a name and a URL")
	}
	p.mu.Lock()
	w, ok := p.workers[name]
	if !ok {
		w = &worker{name: name}
		p.workers[name] = w
	}
	// Re-registration revives a worker the prober declared dead (or updates
	// a moved URL). A restarted worker comes back empty; sessions still
	// routed to it are rebuilt from shadows by per-request recovery.
	w.url, w.healthy, w.draining, w.failures = url, true, false, 0
	p.mu.Unlock()
	workersRegistered.Add(1)
	p.reconcile()
	return nil
}

// Deregister removes a worker after moving every session off it.
func (p *Plane) Deregister(name string) error {
	if _, err := p.leave(name); err != nil {
		return err
	}
	p.reconcile()
	p.mu.Lock()
	delete(p.workers, name)
	p.mu.Unlock()
	return nil
}

// DrainWorker takes a worker out of placement, tells it to refuse new
// sessions, and moves its sessions to the remaining workers. The worker
// stays registered (and draining) until deregistered.
func (p *Plane) DrainWorker(name string) error {
	url, err := p.leave(name)
	if err != nil {
		return err
	}
	// Best-effort: the moves below import the shadow journal, so they do
	// not need the worker to answer.
	p.do(http.MethodPost, url+"/worker/v1/drain", nil)
	p.reconcile()
	return nil
}

// leave marks a registered worker draining, which takes it out of
// placement. It stays registered, so the moves that follow release its
// copies while the plane considers it healthy. It returns the worker's URL.
func (p *Plane) leave(name string) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.workers[name]
	if !ok {
		return "", fmt.Errorf("control: unknown worker %q", name)
	}
	w.draining = true
	return w.url, nil
}

// snapshotRoutes returns the current route set in session-ID order
// without holding the plane's lock beyond the copy.
func (p *Plane) snapshotRoutes() []*route {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make([]string, 0, len(p.routes))
	for id := range p.routes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	routes := make([]*route, 0, len(ids))
	for _, id := range ids {
		routes = append(routes, p.routes[id])
	}
	return routes
}

// ownerFor names the worker that owns a session, or "" when no worker is
// eligible. Of the workers that are healthy and not draining, the owner is
// the one with the highest rendezvous score for the ID, the smaller name
// on a tie. Ownership is a pure function of the eligible set, so a join
// moves only the sessions the joiner now wins, and a leave only the
// leaver's.
func (p *Plane) ownerFor(id string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	owner, best := "", uint64(0)
	for name, w := range p.workers {
		if !w.healthy || w.draining {
			continue
		}
		if s := score(name, id); owner == "" || s > best || s == best && name < owner {
			owner, best = name, s
		}
	}
	return owner
}

// score is a session's rendezvous score on a worker: the 64-bit FNV-1a
// hash of the worker name, a 0 byte and the session ID, passed through the
// splitmix64 finalizer. Raw FNV-1a of short, similar strings ("w-1",
// "s-2") varies mostly in its low bits; the finalizer's avalanche spreads
// the scores uniformly. Computed in-package, so placement is the same
// across processes, architectures and Go versions (a golden test pins it).
func score(worker, id string) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(worker); i++ {
		h = (h ^ uint64(worker[i])) * prime64
	}
	h *= prime64 // the 0 byte: xor with 0 leaves h as it is
	for i := 0; i < len(id); i++ {
		h = (h ^ uint64(id[i])) * prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// workerURL resolves a worker name to its base URL ("" when no such
// worker is registered) and reports whether the plane considers it
// healthy.
func (p *Plane) workerURL(name string) (url string, healthy bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if w, ok := p.workers[name]; ok {
		return w.url, w.healthy
	}
	return "", false
}

// markDead records a worker as unhealthy, which takes it out of placement
// so no new session lands on it. It does not reconcile: forward calls it
// holding a route's mutex, and reconcile takes every route's.
func (p *Plane) markDead(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if w, ok := p.workers[name]; ok {
		w.healthy = false
	}
}

// reconcile puts every route on its owner, in session-ID order. It
// runs after every membership change. A placement that fails leaves its
// route where it was, for the next reconcile or the session's next
// request to retry.
func (p *Plane) reconcile() {
	for _, r := range p.snapshotRoutes() {
		r.mu.Lock()
		if dst := p.ownerFor(r.id); dst != "" && dst != r.worker {
			p.place(r, dst) // a failed placement waits for the next reconcile
		}
		r.mu.Unlock()
	}
}

// place moves one session to dst, caller holding r.mu: the shadow journal
// is imported on dst, which rebuilds the session by replay and refuses
// anything that is not bit-identical, and the session is routed there. A
// source that is another worker the plane still considers healthy is
// asked to release its copy, only after dst's 201, and the placement
// counts as a migration. A source that is dead, deregistered or dst itself
// is sent nothing, and the placement counts as a recovery. A failed import
// leaves the route, and the session, where they were.
func (p *Plane) place(r *route, dst string) error {
	url, _ := p.workerURL(dst)
	if url == "" {
		return fmt.Errorf("control: no healthy worker to place session %s on", r.id)
	}
	rep, err := p.do(http.MethodPost, url+"/worker/v1/sessions/import", r.shadow.Bytes())
	if err == nil && rep.status != http.StatusCreated {
		err = errors.New(string(rep.body))
	}
	if err != nil {
		return fmt.Errorf("control: placing session %s on %s: %w", r.id, dst, err)
	}
	src := r.worker
	r.worker = dst
	if url, healthy := p.workerURL(src); healthy && src != dst {
		// Best-effort: dst owns the session now. A live source that misses
		// the release keeps an unfenced copy.
		p.do(http.MethodPost, url+"/worker/v1/sessions/"+r.id+"/release", nil)
		migrations.Add(1)
		return nil
	}
	recoveries.Add(1)
	return nil
}

// forward proxies one session-scoped request to the session's current
// worker, placing the session on its owner (and retrying once) if the
// worker does not answer — it is then declared dead — or answers 404,
// having lost the session. When the retry cannot be made it writes the
// 503 itself and reports false. Caller holds rt.mu.
func (p *Plane) forward(w http.ResponseWriter, rt *route, r *http.Request, body []byte) (reply, bool) {
	for attempt := 0; ; attempt++ {
		answered := false
		if url, _ := p.workerURL(rt.worker); url != "" {
			rep, err := p.do(r.Method, url+r.URL.Path, body)
			if err == nil && (rep.status != http.StatusNotFound || attempt > 0) {
				return rep, true
			}
			answered = err == nil
		}
		var err error
		if attempt == 0 {
			if !answered {
				p.markDead(rt.worker)
			}
			err = p.place(rt, p.ownerFor(rt.id))
		} else {
			err = fmt.Errorf("control: session %s unreachable after recovery", rt.id)
		}
		if err != nil {
			serve.WriteError(w, http.StatusServiceUnavailable, "%v", err)
			return reply{}, false
		}
	}
}

// Topology returns the plane's fleet view.
func (p *Plane) Topology() TopologyResponse {
	counts := make(map[string]int)
	for _, r := range p.snapshotRoutes() {
		r.mu.Lock()
		counts[r.worker]++
		r.mu.Unlock()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.workers))
	for name := range p.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	top := TopologyResponse{Sessions: len(p.routes)}
	for _, name := range names {
		w := p.workers[name]
		top.Workers = append(top.Workers, WorkerStatus{
			Name: w.name, URL: w.url, Healthy: w.healthy, Draining: w.draining,
			Sessions: counts[w.name],
		})
	}
	return top
}

// ProbeOnce polls every worker's health endpoint once. A worker failing
// its cfg.ProbeFailures-th consecutive probe is declared dead, even one
// forward has already marked dead: it leaves placement, and the reconcile
// that follows rebuilds every session routed to it from its shadow journal
// on a new owner. A dead worker answering again is NOT revived
// automatically — an empty restarted process answers probes too; revival
// is re-registration, which reconciles deliberately.
// Returns the names of workers declared dead by this probe, sorted.
func (p *Plane) ProbeOnce() []string {
	type target struct{ name, url string }
	p.mu.Lock()
	names := make([]string, 0, len(p.workers))
	for name := range p.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	targets := make([]target, 0, len(names))
	for _, name := range names {
		targets = append(targets, target{name, p.workers[name].url})
	}
	p.mu.Unlock()

	var dead []string
	for _, t := range targets {
		rep, err := p.do(http.MethodGet, t.url+"/healthz", nil)
		ok := err == nil && rep.status == http.StatusOK
		p.mu.Lock()
		w, known := p.workers[t.name]
		if !known {
			p.mu.Unlock()
			continue
		}
		if ok {
			w.failures = 0
		} else {
			w.failures++
			if w.failures == p.cfg.ProbeFailures {
				w.healthy = false
				dead = append(dead, t.name)
			}
		}
		p.mu.Unlock()
	}
	if len(dead) > 0 {
		p.reconcile()
	}
	return dead
}

// RunProber polls worker health every interval until ctx is cancelled.
func (p *Plane) RunProber(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval) //lint:allow wallclock — health probing is operator time, never simulation time
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.ProbeOnce()
		}
	}
}

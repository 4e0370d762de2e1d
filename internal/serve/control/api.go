package control

import "net/http"

// RegisterWorkerRequest announces a worker to the control plane. Name is
// the worker's stable identity (the key placement scores); URL is the base URL
// the plane reaches it at.
type RegisterWorkerRequest struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// WorkerStatus is one worker's row in the topology: identity, the plane's
// view of its health, and how many sessions are routed to it.
type WorkerStatus struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining,omitempty"`
	Sessions int    `json:"sessions"`
}

// TopologyResponse is the control plane's fleet view: every known worker
// (registered order is irrelevant — rows sort by name) and the total
// session count.
type TopologyResponse struct {
	Workers  []WorkerStatus `json:"workers"`
	Sessions int            `json:"sessions"`
}

// HealthResponse is the plane's own /healthz body.
type HealthResponse struct {
	Status   string `json:"status"`
	Workers  int    `json:"workers"`
	Sessions int    `json:"sessions"`
}

// maxBodyBytes bounds any body read from a worker; journals are the
// largest (matching the worker-side import bound).
const maxBodyBytes = 64 << 20

// reply is one worker answer read in full: its status, its body, the
// journal line it appended, if any (serve.JournalLineHeader), and the
// headers the plane relays to the client.
type reply struct {
	status      int
	body        []byte
	line        []byte
	contentType string
	retryAfter  string
}

// proxy relays a worker's verbatim status, body, Content-Type and
// Retry-After to the client.
func proxy(w http.ResponseWriter, rep reply) {
	if rep.contentType != "" {
		w.Header().Set("Content-Type", rep.contentType)
	}
	if rep.retryAfter != "" {
		w.Header().Set("Retry-After", rep.retryAfter)
	}
	w.WriteHeader(rep.status)
	w.Write(rep.body) //lint:allow errignore — headers are sent; nothing useful can follow a mid-body failure
}

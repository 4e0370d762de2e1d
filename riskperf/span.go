package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the layer boundary.
type span struct {
	name   string // layer and operation, e.g. "control.submit"
	id     string // session ID or cell key
	start  int64  // nanoseconds since the recorder's epoch
	end    int64
	parent int32 // index of the enclosing span, -1 for a root
}

func (s span) dur() int64 { return s.end - s.start }

// recorder is the benchmark's clock, and in a traced run it keeps every
// span in memory; they are written out once the run ends, so file I/O
// never lands inside a span. An untraced run's recorder keeps nothing.
type recorder struct {
	epoch time.Time
	keep  bool
	mu    sync.Mutex
	spans []span
}

func newRecorder(keep bool) *recorder {
	return &recorder{epoch: time.Now(), keep: keep} //lint:allow wallclock — benchmark timestamps are real time by design; they never feed simulation state
}

// now returns the monotonic time since the recorder's epoch in
// nanoseconds. Every duration the benchmark reports is read through it.
func (r *recorder) now() int64 {
	return int64(time.Since(r.epoch)) //lint:allow wallclock — benchmark timestamps are real time by design; they never feed simulation state
}

// since returns the time elapsed since a reading of now.
func (r *recorder) since(t int64) time.Duration { return time.Duration(r.now() - t) }

// add stores a finished span and returns its index, or -1 when the
// recorder keeps no spans.
func (r *recorder) add(name, id string, start, end int64, parent int32) int32 {
	if !r.keep {
		return -1
	}
	r.mu.Lock()
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, id: id, start: start, end: end, parent: parent})
	r.mu.Unlock()
	return i
}

// open stores a span whose end is not known yet and returns its index, so
// that spans it causes can name it as their parent; close sets the end.
func (r *recorder) open(name, id string, start int64, parent int32) int32 {
	return r.add(name, id, start, start, parent)
}

func (r *recorder) close(i int32, end int64) {
	if i < 0 {
		return
	}
	r.mu.Lock()
	r.spans[i].end = end
	r.mu.Unlock()
}

// reset drops every span recorded so far.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

// all returns the recorded spans; call it once recording has stopped.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// handler wraps an HTTP handler so each request it serves becomes a span
// named layer.op, carrying the session ID from the path.
func (r *recorder) handler(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := r.now()
		h.ServeHTTP(w, req)
		r.add(layer+"."+opOf(req), sessionOf(req.URL.Path), start, r.now(), -1)
	})
}

// opOf names the API operation a request performs.
func opOf(req *http.Request) string {
	p := req.URL.Path
	switch {
	case p == "/v1/risk":
		return "risk"
	case p == "/v1/risk/stream":
		return "stream"
	case p == "/v1/sessions":
		return "create"
	case strings.HasSuffix(p, "/jobs"):
		return "submit"
	case strings.HasSuffix(p, "/finalize"):
		return "finalize"
	case strings.HasSuffix(p, "/journal"):
		return "journal"
	case req.Method == http.MethodDelete:
		return "delete"
	}
	return "other"
}

// sessionOf extracts {id} from /v1/sessions/{id}[/...]; "" otherwise.
func sessionOf(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/sessions/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	return id
}

// overlap returns how much of [start, end) the interval [s, e) covers.
func overlap(start, end, s, e int64) int64 {
	lo, hi := max(start, s), min(end, e)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// selfTime is a span's duration minus the part of it its child spans
// cover. Children of one span never overlap each other here: a session
// never has two requests in flight, and a cell's stages run in sequence.
func selfTime(parent span, kids ...span) int64 {
	self := parent.dur()
	for _, k := range kids {
		self -= overlap(parent.start, parent.end, k.start, k.end)
	}
	return self
}

// writeSpans writes the spans as tab-separated lines: name, id, start and
// end in nanoseconds since the run's epoch, and the parent index.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tid\tstart_ns\tend_ns\tparent")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\n", s.name, s.id, s.start, s.end, s.parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/economy"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/registry"
	"repro/internal/scheduler"
	"repro/internal/serve"
	"repro/internal/serve/control"
	"repro/internal/streamrisk"
	"repro/internal/workload"
)

// The session shape is riskload's default load: 16 sessions of 20 job
// submits each (load.Config's Sessions and Jobs).
const (
	fleetWorkers = 4  // serve.Server workers behind the control plane
	sessionList  = 16 // distinct seeded sessions the caller cycles through
	jobsPerSess  = 20 // job submits per session
	fleetSetups  = 15 // set-up rounds, spread through the run; setup_s is their median
)

// tableV is every (policy, model) pair of Table V; sessions rotate
// through them.
func tableV() [][2]string {
	var out [][2]string
	for _, m := range []economy.Model{economy.Commodity, economy.BidBased} {
		for _, s := range scheduler.ForModel(m) {
			out = append(out, [2]string{s.Name, m.String()})
		}
	}
	return out
}

// sessionSpec is one entry of the seeded session list.
type sessionSpec struct {
	policy, model string
	jobs          []serve.SubmitJobRequest
	// create and submits are the request bodies, encoded once at set-up
	// so the caller spends no measured time encoding them.
	create  []byte
	submits [][]byte
}

// sessions derives the session list from the seed: each entry's trace
// and QoS terms come from their own seeds, and entry k runs Table V pair
// k mod 10.
func sessions(seed int64) ([]sessionSpec, error) {
	pairs := tableV()
	out := make([]sessionSpec, sessionList)
	for k := range out {
		synth := workload.DefaultSynthConfig()
		synth.Jobs = jobsPerSess
		trace, err := workload.Generate(synth, deriveSeed(seed, uint64(100+2*k)))
		if err != nil {
			return nil, err
		}
		if err := qos.Synthesize(trace, qos.DefaultConfig(deriveSeed(seed, uint64(101+2*k)))); err != nil {
			return nil, err
		}
		s := sessionSpec{policy: pairs[k%len(pairs)][0], model: pairs[k%len(pairs)][1]}
		if s.create, err = json.Marshal(serve.CreateSessionRequest{Policy: s.policy, Model: s.model}); err != nil {
			return nil, err
		}
		for _, j := range trace {
			req := serve.SubmitJobRequest{
				ID: j.ID, Submit: j.Submit, Runtime: j.Runtime, Estimate: j.Estimate, Procs: j.Procs,
				Deadline: j.Deadline, Budget: j.Budget, PenaltyRate: j.PenaltyRate, HighUrgency: j.HighUrgency,
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			s.jobs = append(s.jobs, req)
			s.submits = append(s.submits, body)
		}
		out[k] = s
	}
	return out, nil
}

// fleet is one in-process service plane, built the way load.SelfHost
// builds it: a control plane and fleetWorkers workers on loopback HTTP.
// A traced fleet wraps every handler in a span-recording handler.
type fleet struct {
	url     string
	servers []*http.Server
	serving sync.WaitGroup // one per server's Serve goroutine
	client  *http.Client
	list    []sessionSpec
}

// bootFleet starts the fleet; its client opens at most two keep-alive
// connections to the plane, one for the caller and one for the risk
// subscriber.
func bootFleet(seed int64, rec *recorder) (*fleet, error) {
	f := &fleet{}
	listen := func(layer string, h http.Handler) (string, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		if rec.keep {
			h = rec.handler(layer, h)
		}
		srv := &http.Server{Handler: h}
		f.servers = append(f.servers, srv)
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			srv.Serve(l) //lint:allow errignore — Serve returns http.ErrServerClosed once close shuts the server down
		}()
		return "http://" + l.Addr().String(), nil
	}
	plane := control.New(control.Config{})
	url, err := listen("control", plane.Handler())
	if err != nil {
		return nil, err
	}
	f.url = url
	for i := 1; i <= fleetWorkers; i++ {
		wurl, err := listen("serve", serve.New(serve.Config{}).Handler())
		if err != nil {
			f.close()
			return nil, err
		}
		if err := plane.Register(fmt.Sprintf("w-%d", i), wurl); err != nil {
			f.close()
			return nil, err
		}
	}
	f.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true,
	}}
	f.list, err = sessions(seed)
	if err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// close shuts every server down and returns once their Serve goroutines
// have exited.
func (f *fleet) close() {
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	for _, s := range f.servers {
		s.Close() //lint:allow errignore — closing loopback listeners at teardown; nothing to report
	}
	f.serving.Wait()
}

// sessionRun is one session a caller completed.
type sessionRun struct {
	id      string
	spec    int      // index into the session list
	journal [32]byte // SHA-256 of the journal fetched before the delete
	submits []int64  // traced runs: response times of the submits, on the recorder's clock
}

// caller is one closed-loop client: it sends its next request only after
// the previous one completed.
type caller struct {
	f   *fleet
	rec *recorder

	submit, read samples
	requests     int64
	failed       int64
	runs         []sessionRun
	lastEnd      int64 // when the last response was read, on the recorder's clock
}

// do issues one request and records its latency. The response body goes
// to read, or is discarded when read is nil. A transport error, an
// unexpected status or a body read cannot use enters the latency samples
// as +Inf and counts as a failure.
func (c *caller) do(lat *samples, op, method, path string, body []byte, want int, read func(io.Reader) error) bool {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.f.url+path, rd)
	if err != nil {
		c.failed++
		return false
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.requests++
	t0 := c.rec.now()
	resp, err := c.f.client.Do(req)
	if err == nil {
		if resp.StatusCode != want {
			err = fmt.Errorf("status %d", resp.StatusCode)
		} else if read != nil {
			err = read(resp.Body)
		}
		if _, cerr := io.Copy(io.Discard, resp.Body); err == nil {
			err = cerr
		}
		resp.Body.Close()
	}
	t1 := c.rec.now()
	c.lastEnd = t1
	if err != nil {
		c.failed++
		if lat != nil {
			lat.addFailed()
		}
		return false
	}
	if lat != nil {
		lat.add(time.Duration(t1 - t0))
	}
	if op == "submit" {
		c.rec.add("load.submit", sessionOf(path), t0, t1, -1)
	}
	return true
}

// session runs one session: create, the job submits (each followed by a
// risk read), finalize, journal, delete. The first failed request
// abandons the session.
func (c *caller) session(k int) {
	spec := c.f.list[k]
	var cr serve.CreateSessionResponse
	if !c.do(nil, "create", http.MethodPost, "/v1/sessions", spec.create, http.StatusCreated,
		func(r io.Reader) error { return json.NewDecoder(r).Decode(&cr) }) {
		return
	}
	run := sessionRun{id: cr.ID, spec: k}
	base := "/v1/sessions/" + cr.ID
	for _, body := range spec.submits {
		if !c.do(&c.submit, "submit", http.MethodPost, base+"/jobs", body, http.StatusOK, nil) {
			return
		}
		if c.rec.keep {
			run.submits = append(run.submits, c.lastEnd) // for the stream lag
		}
		if !c.do(&c.read, "risk", http.MethodGet, "/v1/risk", nil, http.StatusOK, nil) {
			return
		}
	}
	if !c.do(nil, "finalize", http.MethodPost, base+"/finalize", nil, http.StatusOK, nil) {
		return
	}
	hashJournal := func(r io.Reader) error {
		h := sha256.New()
		if _, err := io.Copy(h, r); err != nil {
			return err
		}
		h.Sum(run.journal[:0])
		return nil
	}
	if !c.do(nil, "journal", http.MethodGet, base+"/journal", nil, http.StatusOK, hashJournal) {
		return
	}
	if !c.do(nil, "delete", http.MethodDelete, base, nil, http.StatusOK, nil) {
		return
	}
	c.runs = append(c.runs, run)
}

// drive runs one caller until the deadline, taking the next session of
// the list each time; it returns once the session in progress has ended.
func drive(f *fleet, rec *recorder, next *int, until int64) *caller {
	c := &caller{f: f, rec: rec}
	for {
		c.session(*next % len(f.list))
		*next++
		if rec.now() >= until {
			return c
		}
	}
}

// subscriber is the fleet run's GET /v1/risk/stream consumer.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}

	anchor  uint64        // sequence of the snapshot it started from
	lastSeq atomic.Uint64 // highest sequence delivered so far
	deltas  int64
	resyncs int64
	err     error
	arrived map[string][]int64 // traced runs: session → arrival time of its decision deltas, by decision number
}

// deltaHead is the part of a delta the traced run decodes.
type deltaHead struct {
	Kind          string `json:"kind"`
	Session       string `json:"session"`
	SessionScores struct {
		Events int64 `json:"events"`
	} `json:"session_scores"`
}

func subscribe(f *fleet, rec *recorder) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url+"/v1/risk/stream", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("risk stream: status %d", resp.StatusCode)
	}
	s := &subscriber{cancel: cancel, done: make(chan struct{}), arrived: map[string][]int64{}}
	r := streamrisk.NewEventReader(resp.Body)
	ev, err := r.Next()
	if err == nil && ev.Event != streamrisk.EventSnapshot {
		err = fmt.Errorf("risk stream opened with %q, not a snapshot", ev.Event)
	}
	var snap streamrisk.Snapshot
	if err == nil {
		err = json.Unmarshal(ev.Data, &snap)
	}
	if err != nil {
		resp.Body.Close()
		cancel()
		return nil, err
	}
	s.anchor = snap.Seq
	s.lastSeq.Store(snap.Seq)
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		for {
			ev, err := r.Next()
			if err != nil {
				if ctx.Err() == nil {
					s.err = err
				}
				return
			}
			t := rec.now()
			switch ev.Event {
			case streamrisk.EventResync:
				s.resyncs++
				var snap streamrisk.Snapshot
				if err := json.Unmarshal(ev.Data, &snap); err != nil {
					s.err = err
					return
				}
				s.lastSeq.Store(snap.Seq)
			case streamrisk.EventDelta:
				seq, err := deltaSeq(ev.Data)
				if err != nil {
					s.err = err
					return
				}
				if seq <= s.lastSeq.Load() {
					continue
				}
				s.lastSeq.Store(seq)
				s.deltas++
				if !rec.keep {
					continue
				}
				var d deltaHead
				if err := json.Unmarshal(ev.Data, &d); err != nil {
					s.err = err
					return
				}
				if d.Kind == streamrisk.DeltaDecision {
					a := s.arrived[d.Session]
					for int64(len(a)) < d.SessionScores.Events {
						a = append(a, -1)
					}
					a[d.SessionScores.Events-1] = t
					s.arrived[d.Session] = a
				}
			}
		}
	}()
	return s, nil
}

// deltaSeq reads a delta's sequence number, the first field of its JSON,
// without decoding the rest. The subscriber shares the fleet's P, so a
// full decode of every delta would land its cost in whichever request it
// happened to run beside; the untraced run needs only the sequence.
func deltaSeq(data []byte) (uint64, error) {
	rest, ok := bytes.CutPrefix(data, []byte(`{"seq":`))
	end := bytes.IndexByte(rest, ',')
	if !ok || end < 0 {
		return 0, fmt.Errorf("risk stream delta does not open with its sequence: %.40q", data)
	}
	return strconv.ParseUint(string(rest[:end]), 10, 64)
}

// stop waits until the stream has delivered sequence end (or a second has
// passed), then closes it and waits for the reader to exit.
func (s *subscriber) stop(rec *recorder, end uint64) {
	deadline := rec.now() + int64(time.Second)
	for s.lastSeq.Load() < end && rec.now() < deadline {
		time.Sleep(time.Millisecond) //lint:allow wallclock — polls a live stream's progress; no simulation involved
	}
	s.cancel()
	<-s.done
}

// replayed is one session's offline replay: the journal digest and, per
// decision, the time spent in Session.Submit, SessionJournal.Decision and
// Engine.JournalDecision.
type replayed struct {
	journal              [32]byte
	submit, append, fold []int64
	accepted, submitted  int // from the final report
	policy               string
}

// replay re-runs a session's trace offline through scheduler.NewSession and
// Submit and obs.SessionJournal, exactly as a worker does for the same
// request stream, folding each decision into eng.
func replay(id string, spec sessionSpec, rec *recorder, eng *streamrisk.Engine) (*replayed, error) {
	m, err := registry.ParseModel(spec.model)
	if err != nil {
		return nil, err
	}
	ps, err := registry.PolicySpec(spec.policy, m)
	if err != nil {
		return nil, err
	}
	cfg := scheduler.RunConfig{Nodes: 128, Model: m, BasePrice: economy.DefaultBasePrice}
	drv, err := scheduler.NewSession(ps.New, cfg)
	if err != nil {
		return nil, err
	}
	j := obs.NewSessionJournal(obs.SessionHeader{
		ID: id, Policy: ps.Name, Model: m.String(), Nodes: cfg.Nodes, BasePrice: cfg.BasePrice,
	})
	out := &replayed{policy: ps.Name}
	for _, r := range spec.jobs {
		job := &workload.Job{
			ID: r.ID, Submit: r.Submit, Runtime: r.Runtime, Estimate: r.Estimate, Procs: r.Procs,
			Deadline: r.Deadline, Budget: r.Budget, PenaltyRate: r.PenaltyRate, HighUrgency: r.HighUrgency,
		}
		t0 := rec.now()
		d, err := drv.Submit(job)
		t1 := rec.now()
		if err != nil {
			return nil, fmt.Errorf("replaying session %s job %d: %w", id, job.ID, err)
		}
		dec := obs.SessionDecision{
			Job: job.ID, Submit: job.Submit, Runtime: job.Runtime, Estimate: job.Estimate,
			Procs: job.Procs, Deadline: job.Deadline, Budget: job.Budget, PenaltyRate: job.PenaltyRate,
			HighUrgency: job.HighUrgency, Admission: d.Admission.String(), Quote: d.Quote,
		}
		j.Decision(dec)
		t2 := rec.now()
		eng.JournalDecision(j.Header(), dec)
		t3 := rec.now()
		out.submit = append(out.submit, t1-t0)
		out.append = append(out.append, t2-t1)
		out.fold = append(out.fold, t3-t2)
	}
	final := drv.Finalize()
	out.accepted, out.submitted = final.Accepted, final.Submitted
	j.Final(final)
	eng.ForgetSession(id)
	if err := j.Err(); err != nil {
		return nil, err
	}
	out.journal = sha256.Sum256(j.Bytes())
	return out, nil
}

// verifySessions is the fleet's output check: every finished session's
// journal must equal its offline replay byte for byte. It returns the
// replays by session ID and how many journals differ.
func verifySessions(list []sessionSpec, runs []sessionRun, rec *recorder) (map[string]*replayed, int, error) {
	eng := streamrisk.NewEngine(streamrisk.Config{})
	replays := make(map[string]*replayed, len(runs))
	mismatched := 0
	for _, r := range runs {
		rp, err := replay(r.id, list[r.spec], rec, eng)
		if err != nil {
			return nil, 0, err
		}
		if rp.journal != r.journal {
			mismatched++
		}
		replays[r.id] = rp
	}
	return replays, mismatched, nil
}

// expvarInt reads a process-wide counter the serve and control packages
// publish.
func expvarInt(name string) float64 {
	if v, ok := expvar.Get(name).(*expvar.Int); ok {
		return float64(v.Value())
	}
	return 0
}

// fleetVars are the serve and control counters reported as per-layer
// metrics under their expvar names.
var fleetVars = []string{"serve.requests_rejected", "control.recoveries", "control.migrations"}

func runFleet(o options) (*outcome, error) {
	rec := newRecorder(o.traced)
	// The fleet, its caller and the risk subscriber share one P, so a
	// request crosses client, plane and worker without waking a thread on
	// another CPU. On a shared 2-vCPU host those wake-ups, not the program,
	// set much of the latency: with a P per CPU, runs of the same code
	// spread past their bounds (see README.md).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var (
		setups []float64
		next   int // the run fleet's session counter
	)
	// setUp boots a fleet, registers its workers, synthesizes the session
	// list and runs one warm-up session, and records how long that took.
	setUp := func(clock *recorder, counter *int) (*fleet, error) {
		t0 := clock.now()
		f, err := bootFleet(o.seed, clock)
		if err != nil {
			return nil, err
		}
		if c := drive(f, clock, counter, 0); c.failed > 0 {
			f.close()
			return nil, fmt.Errorf("warm-up session failed")
		}
		setups = append(setups, clock.since(t0).Seconds())
		return f, nil
	}
	f, err := setUp(rec, &next)
	if err != nil {
		return nil, err
	}
	defer f.close()
	rec.reset() // the warm-up's spans would join the run's in the self times

	sub, err := subscribe(f, rec)
	if err != nil {
		return nil, err
	}
	defer func() { sub.cancel(); <-sub.done }() // a no-op once stop has run
	vars := make([]float64, len(fleetVars))
	for i, name := range fleetVars {
		vars[i] = expvarInt(name)
	}
	before, err := readCounters()
	if err != nil {
		return nil, err
	}
	// The measured phase runs in fleetSetups segments. Between two, with
	// the caller stopped, a set-up round builds a fleet of its own and
	// shuts it down again, so the set-up rounds are spread through the run
	// and meet the same host conditions as the measured traffic.
	var (
		cs      []*caller
		elapsed time.Duration
		cpu     float64   // CPU seconds the process spent in the segments
		rss     []float64 // resident set at the end of each segment, MiB
	)
	for seg := 0; seg < fleetSetups; seg++ {
		if seg > 0 {
			var own int
			scratch, err := setUp(newRecorder(false), &own)
			if err != nil {
				return nil, err
			}
			scratch.close()
		}
		c0, err := cpuSeconds()
		if err != nil {
			return nil, err
		}
		t0 := rec.now()
		cs = append(cs, drive(f, rec, &next, t0+int64(o.seconds)/fleetSetups))
		elapsed += rec.since(t0)
		c1, err := cpuSeconds()
		if err != nil {
			return nil, err
		}
		cpu += c1 - c0
		mb, err := statusMB("VmRSS")
		if err != nil {
			return nil, err
		}
		rss = append(rss, mb)
	}
	after, err := readCounters()
	if err != nil {
		return nil, err
	}
	hwm, err := statusMB("VmHWM") // before the replays below add their own allocations
	if err != nil {
		return nil, err
	}

	out := &outcome{metrics: metricSet{}}
	m := out.metrics
	var submit, read samples
	var requests int64
	for _, c := range cs {
		submit.merge(&c.submit)
		read.merge(&c.read)
		requests += c.requests
		out.attempted += c.requests
		out.failed += c.failed
	}
	var snap streamrisk.Snapshot
	if err := getJSON(f, "/v1/risk", &snap); err != nil {
		return nil, err
	}
	endSeq := snap.Seq
	sub.stop(rec, endSeq)
	if sub.err != nil {
		fmt.Fprintf(o.out, "risk stream failed: %v\n", sub.err)
		out.failed++
	}

	var runs []sessionRun
	for _, c := range cs {
		runs = append(runs, c.runs...)
	}
	replays, mismatched, err := verifySessions(f.list, runs, rec)
	if err != nil {
		return nil, err
	}
	sessionsRun := len(runs)
	out.failed += int64(mismatched)
	fmt.Fprintf(o.out, "%s seed %d: %d sessions, %d requests in %.2fs (%.0f ops/s) and %.2f CPU-s, peak RSS %.1f MB; %d journals differ from their offline replay\n",
		"fleet-observe", o.seed, sessionsRun, requests, elapsed.Seconds(), float64(requests)/elapsed.Seconds(), cpu, hwm, mismatched)
	fmt.Fprintln(o.out, submit.describe("submit"))
	fmt.Fprintln(o.out, read.describe("read"))

	if !o.traced {
		m.set("ops_per_cpu_s", float64(requests)/cpu)
		m.set("submit_p50_ms", submit.ms(0.50))
		m.set("submit_p90_ms", submit.ms(0.90))
		m.set("rss_mb", median(rss))
		m.set("setup_s", median(setups))
		return out, nil
	}

	m.set("trace.ops_per_cpu_s", float64(requests)/cpu)
	m.set("streamrisk.read_p50_ms", read.ms(0.50))
	m.set("streamrisk.read_p90_ms", read.ms(0.90))
	runtimeMetrics(m, before, after)
	for i, name := range fleetVars {
		m.set(name, expvarInt(name)-vars[i])
	}
	spans := rec.all()
	fleetSpanMetrics(m, spans, replays)
	if err := acceptRatios(m, f.list); err != nil {
		return nil, err
	}
	var lags []float64
	for _, c := range cs {
		for _, r := range c.runs {
			arrived := sub.arrived[r.id]
			for k, t := range r.submits {
				if k < len(arrived) && arrived[k] >= 0 {
					lags = append(lags, float64(arrived[k]-t)/1e3)
				}
			}
		}
	}
	m.set("streamrisk.lag_us", median(lags))
	if published := endSeq - sub.anchor; published > 0 {
		m.set("streamrisk.delivered_ratio", float64(sub.deltas)/float64(published))
	}
	m.set("streamrisk.resyncs", float64(sub.resyncs))
	fmt.Fprintf(o.out, "%d spans\n", len(spans))
	if o.spansDir != "" {
		if err := writeSpans(o.spansDir+".spans", spans); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// getJSON reads a plane endpoint outside the measured traffic.
func getJSON(f *fleet, path string, out any) error {
	resp, err := f.client.Get(f.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// fleetSpanMetrics matches the client, plane and worker spans of each
// submit by session ID and per-session order — a session never has two
// requests in flight — links each to its parent, and derives each layer's
// median self time. The worker's self time also subtracts the offline
// replay's submit, journal append and fold for the same decision.
func fleetSpanMetrics(m metricSet, spans []span, replays map[string]*replayed) {
	const client, plane, worker = "load.submit", "control.submit", "serve.submit"
	bySession := map[string]map[string][]int32{} // session → span name → span indices
	var snapshot []float64
	for i, s := range spans {
		switch s.name {
		case "control.risk":
			snapshot = append(snapshot, float64(s.dur())/1e3)
		case client, plane, worker:
			if bySession[s.id] == nil {
				bySession[s.id] = map[string][]int32{}
			}
			bySession[s.id][s.name] = append(bySession[s.id][s.name], int32(i))
		}
	}
	var clientUs, controlUs, handlerUs, selfUs, submitUs, appendUs, foldUs []float64
	ids := make([]string, 0, len(replays))
	for id := range replays {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		rp := replays[id]
		for k := range rp.submit {
			submitUs = append(submitUs, float64(rp.submit[k])/1e3)
			appendUs = append(appendUs, float64(rp.append[k])/1e3)
			foldUs = append(foldUs, float64(rp.fold[k])/1e3)
		}

		c, p, w := bySession[id][client], bySession[id][plane], bySession[id][worker]
		if len(c) != len(rp.submit) || len(p) != len(c) || len(w) != len(c) {
			continue
		}
		for _, list := range [][]int32{c, p, w} {
			sort.Slice(list, func(a, b int) bool { return spans[list[a]].start < spans[list[b]].start })
		}
		for k := range c {
			cs, ps, ws := &spans[c[k]], &spans[p[k]], &spans[w[k]]
			ps.parent, ws.parent = c[k], p[k]
			clientUs = append(clientUs, float64(selfTime(*cs, *ps))/1e3)
			controlUs = append(controlUs, float64(selfTime(*ps, *ws))/1e3)
			handlerUs = append(handlerUs, float64(ws.dur())/1e3)
			selfUs = append(selfUs, float64(ws.dur()-rp.submit[k]-rp.append[k]-rp.fold[k])/1e3)
		}
	}
	m.set("load.client_us", median(clientUs))
	m.set("control.self_us", median(controlUs))
	m.set("serve.handler_us", median(handlerUs))
	m.set("serve.self_us", median(selfUs))
	m.set("scheduler.submit_us", median(submitUs))
	m.set("obs.journal_append_us", median(appendUs))
	m.set("streamrisk.fold_us", median(foldUs))
	m.set("streamrisk.snapshot_us", median(snapshot))
}

// acceptRatios sets each policy's accepted share over one offline replay
// of every session-list entry, so it depends on the list alone and not on
// how many times a run happened to complete each entry.
func acceptRatios(m metricSet, list []sessionSpec) error {
	accepted := map[string]int{}
	submitted := map[string]int{}
	eng := streamrisk.NewEngine(streamrisk.Config{})
	for k, spec := range list {
		rp, err := replay(fmt.Sprintf("list-%d", k), spec, newRecorder(false), eng)
		if err != nil {
			return err
		}
		slug := slugOf(rp.policy)
		accepted[slug] += rp.accepted
		submitted[slug] += rp.submitted
	}
	for _, p := range policies {
		if n := submitted[p.slug]; n > 0 {
			m.set("scheduler.accept_ratio."+p.slug, float64(accepted[p.slug])/float64(n))
		}
	}
	return nil
}

package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/qos"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Config parameterizes one riskload run.
type Config struct {
	// Target is the base URL of the service plane (control plane or a
	// standalone worker).
	Target string
	// Rate is the open-loop session arrival rate per second (default 8).
	Rate float64
	// Sessions is the total number of sessions dispatched (default 16).
	Sessions int
	// Jobs is the number of job submissions per session (default 20).
	Jobs int
	// Seed roots the workload synthesis; session k's trace derives from
	// Seed+k (default 1).
	Seed int64
	// Policy and Model name the Table V pair every session runs (default
	// Libra under the commodity model).
	Policy string
	Model  string
	// Client issues the requests (default: 30s overall timeout).
	Client *http.Client
	// RiskStream, when set, keeps one /v1/risk/stream SSE subscriber open
	// for the whole run and reports what it saw (deltas, resyncs, dropped
	// deltas observed as sequence gaps, end-of-run lag) in the Result.
	RiskStream bool
}

func (c Config) withDefaults() Config {
	if c.Rate <= 0 {
		c.Rate = 8
	}
	if c.Sessions <= 0 {
		c.Sessions = 16
	}
	if c.Jobs <= 0 {
		c.Jobs = 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Policy == "" {
		c.Policy = "Libra"
	}
	if c.Model == "" {
		c.Model = "commodity"
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return c
}

// OpStats summarizes one operation class's latency distribution in
// milliseconds (quantiles are log-bucket upper bounds; max is exact).
type OpStats struct {
	Count     int64   `json:"count"`
	P50Millis float64 `json:"p50_ms"`
	P99Millis float64 `json:"p99_ms"`
	P999Milli float64 `json:"p999_ms"`
	MaxMillis float64 `json:"max_ms"`
}

// Result is one riskload run's outcome: request counts, the open-loop
// punctuality figures, and per-operation latency summaries under the keys
// create, submit, finalize, and all.
type Result struct {
	Target          string             `json:"target"`
	Sessions        int                `json:"sessions"`
	JobsPerSession  int                `json:"jobs_per_session"`
	Requests        int64              `json:"requests"`
	Errors          int64              `json:"errors"`
	LateStarts      int64              `json:"late_starts"`
	DurationSeconds float64            `json:"duration_seconds"`
	Throughput      float64            `json:"requests_per_second"`
	Latency         map[string]OpStats `json:"latency"`
	// RiskStream is the risk-stream subscriber probe's summary, present
	// only when Config.RiskStream was set.
	RiskStream *RiskStreamStats `json:"risk_stream,omitempty"`
}

// SLO is a latency/error-budget gate over a Result's "all" operation
// class. Zero-valued fields are unchecked, except errors: a run must be
// error-free unless MaxErrorRate loosens that.
type SLO struct {
	P99          time.Duration
	P999         time.Duration
	MaxErrorRate float64
}

// Check returns the violated clauses, empty when the result meets the SLO.
func (s SLO) Check(r Result) []string {
	var violations []string
	all := r.Latency["all"]
	if s.P99 > 0 && all.P99Millis > float64(s.P99)/float64(time.Millisecond) {
		violations = append(violations, fmt.Sprintf("p99 %.3fms exceeds SLO %v", all.P99Millis, s.P99))
	}
	if s.P999 > 0 && all.P999Milli > float64(s.P999)/float64(time.Millisecond) {
		violations = append(violations, fmt.Sprintf("p999 %.3fms exceeds SLO %v", all.P999Milli, s.P999))
	}
	if r.Requests > 0 {
		rate := float64(r.Errors) / float64(r.Requests)
		if rate > s.MaxErrorRate {
			violations = append(violations, fmt.Sprintf("error rate %.4f (%d/%d) exceeds SLO %.4f", rate, r.Errors, r.Requests, s.MaxErrorRate))
		}
	}
	return violations
}

// runner carries one run's shared state.
type runner struct {
	cfg   Config
	hists map[string]*Histogram
	reqs  atomic.Int64
	errs  atomic.Int64
}

// Run drives the configured load against the target and summarizes it.
// The request stream is fully determined by the Config; the latencies are
// whatever the service actually did.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	traces := make([][]*workload.Job, cfg.Sessions)
	for k := range traces {
		synth := workload.DefaultSynthConfig()
		synth.Jobs = cfg.Jobs
		trace, err := workload.Generate(synth, cfg.Seed+int64(k))
		if err != nil {
			return Result{}, fmt.Errorf("load: generating session %d workload: %w", k, err)
		}
		if err := qos.Synthesize(trace, qos.DefaultConfig(cfg.Seed+int64(k)+1)); err != nil {
			return Result{}, fmt.Errorf("load: synthesizing session %d QoS: %w", k, err)
		}
		traces[k] = trace
	}

	r := &runner{cfg: cfg, hists: map[string]*Histogram{
		"create": {}, "submit": {}, "finalize": {}, "all": {},
	}}
	var probe *riskProbe
	if cfg.RiskStream {
		probe = startRiskProbe(cfg.Target, cfg.Client.Timeout)
	}
	var late atomic.Int64
	var wg sync.WaitGroup
	start := time.Now() //lint:allow wallclock — the load generator schedules real arrivals and measures real latency
	for k := 0; k < cfg.Sessions; k++ {
		due := start.Add(time.Duration(float64(k) / cfg.Rate * float64(time.Second)))
		if d := time.Until(due); d > 0 { //lint:allow wallclock — open-loop arrival schedule
			time.Sleep(d) //lint:allow wallclock — open-loop arrival schedule
		} else if d < -50*time.Millisecond {
			// The dispatcher itself fell behind the open-loop schedule —
			// the run is overloaded beyond what latency numbers alone show.
			late.Add(1)
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			r.driveSession(traces[k])
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start) //lint:allow wallclock — run duration is a reported measurement

	var streamStats *RiskStreamStats
	if probe != nil {
		st := probe.finish(cfg.Client, cfg.Target)
		streamStats = &st
	}

	res := Result{
		Target: cfg.Target, Sessions: cfg.Sessions, JobsPerSession: cfg.Jobs,
		Requests: r.reqs.Load(), Errors: r.errs.Load(), LateStarts: late.Load(),
		DurationSeconds: elapsed.Seconds(),
		Latency:         make(map[string]OpStats, len(r.hists)),
		RiskStream:      streamStats,
	}
	if res.DurationSeconds > 0 {
		res.Throughput = float64(res.Requests) / res.DurationSeconds
	}
	for op, h := range r.hists {
		res.Latency[op] = OpStats{
			Count:     h.Count(),
			P50Millis: float64(h.Quantile(0.50)) / float64(time.Millisecond),
			P99Millis: float64(h.Quantile(0.99)) / float64(time.Millisecond),
			P999Milli: float64(h.Quantile(0.999)) / float64(time.Millisecond),
			MaxMillis: float64(h.Max()) / float64(time.Millisecond),
		}
	}
	return res, nil
}

// driveSession runs one session's sequential request stream: create, the
// job stream, finalize, delete. The first error abandons the session —
// open-loop means the schedule never waits for it anyway.
func (r *runner) driveSession(jobs []*workload.Job) {
	var cr serve.CreateSessionResponse
	ok := r.do("create", http.MethodPost, "/v1/sessions", serve.CreateSessionRequest{
		Policy: r.cfg.Policy, Model: r.cfg.Model,
	}, http.StatusCreated, &cr)
	if !ok {
		return
	}
	for _, j := range jobs {
		if !r.do("submit", http.MethodPost, "/v1/sessions/"+cr.ID+"/jobs", serve.SubmitJobRequest{
			ID: j.ID, Submit: j.Submit, Runtime: j.Runtime, Estimate: j.Estimate,
			Procs: j.Procs, Deadline: j.Deadline, Budget: j.Budget,
			PenaltyRate: j.PenaltyRate, HighUrgency: j.HighUrgency,
		}, http.StatusOK, nil) {
			return
		}
	}
	if !r.do("finalize", http.MethodPost, "/v1/sessions/"+cr.ID+"/finalize", nil, http.StatusOK, nil) {
		return
	}
	r.do("finalize", http.MethodDelete, "/v1/sessions/"+cr.ID, nil, http.StatusOK, nil)
}

// do issues one timed request, recording its latency under op and "all".
// Network errors and unexpected statuses count as errors and return
// false.
func (r *runner) do(op, method, path string, body any, wantStatus int, out any) bool {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			r.errs.Add(1)
			return false
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, r.cfg.Target+path, rd)
	if err != nil {
		r.errs.Add(1)
		return false
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now() //lint:allow wallclock — service latency measurement
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		r.reqs.Add(1)
		r.errs.Add(1)
		return false
	}
	raw, readErr := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	d := time.Since(t0) //lint:allow wallclock — service latency measurement
	r.hists[op].Record(d)
	r.hists["all"].Record(d)
	r.reqs.Add(1)
	if readErr != nil || resp.StatusCode != wantStatus {
		r.errs.Add(1)
		return false
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			r.errs.Add(1)
			return false
		}
	}
	return true
}

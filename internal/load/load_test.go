package load

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("empty histogram p99 = %v, want 0", got)
	}

	// 1000 observations: 990 at ~1ms, 10 at ~100ms. p50 and p99 must sit
	// in the 1ms bucket's range, p999 in the 100ms range.
	for i := 0; i < 990; i++ {
		h.Record(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(100 * time.Millisecond)
	}
	if got := h.Count(); got != 1000 {
		t.Fatalf("count = %d, want 1000", got)
	}
	if got := h.Max(); got != 100*time.Millisecond {
		t.Errorf("max = %v, want exactly 100ms", got)
	}
	p50 := h.Quantile(0.50)
	if p50 < time.Millisecond || p50 > time.Duration(float64(time.Millisecond)*bucketGrowth) {
		t.Errorf("p50 = %v, want within one bucket above 1ms", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < time.Millisecond || p99 > time.Duration(float64(time.Millisecond)*bucketGrowth) {
		t.Errorf("p99 = %v, want within one bucket above 1ms", p99)
	}
	p999 := h.Quantile(0.999)
	if p999 < 100*time.Millisecond || p999 > time.Duration(float64(100*time.Millisecond)*bucketGrowth) {
		t.Errorf("p999 = %v, want within one bucket above 100ms", p999)
	}
}

// The quantile estimate is conservative: never below the true quantile,
// never more than one bucket growth factor above it.
func TestHistogramQuantileBounds(t *testing.T) {
	var h Histogram
	durations := []time.Duration{
		500 * time.Nanosecond, 3 * time.Microsecond, 40 * time.Microsecond,
		700 * time.Microsecond, 2 * time.Millisecond, 9 * time.Millisecond,
		77 * time.Millisecond, 400 * time.Millisecond, 3 * time.Second,
	}
	for _, d := range durations {
		h.Record(d)
	}
	for _, d := range durations {
		q := h.Quantile(1.0)
		if q < h.Max() {
			t.Fatalf("p100 = %v below max %v after recording %v", q, h.Max(), d)
		}
	}
	// Bucket edges are monotone and grow by exactly the growth factor.
	for i := 1; i < bucketCount-1; i++ {
		lo, hi := bucketUpper(i-1), bucketUpper(i)
		if hi <= lo {
			t.Fatalf("bucket %d upper %v not above bucket %d upper %v", i, hi, i-1, lo)
		}
		ratio := float64(hi) / float64(lo)
		if math.Abs(ratio-bucketGrowth) > 0.01*bucketGrowth {
			t.Fatalf("bucket %d growth ratio %.4f, want ~%.2f", i, ratio, bucketGrowth)
		}
	}
	// Extreme values stay in range: an observation beyond the bucket
	// geometry lands in the catch-all, which answers with the exact max.
	h.Record(0)
	h.Record(time.Hour)
	if got := h.Quantile(1.0); got != time.Hour {
		t.Errorf("catch-all bucket p100 = %v, want the exact 1h max", got)
	}
}

// A quantile never exceeds the largest observation, even when the max sits
// low in its bucket: 1.856ms lands in the bucket that reaches ~1.972ms.
func TestHistogramQuantileAtMostMax(t *testing.T) {
	var h Histogram
	for i := 0; i < 500; i++ {
		h.Record(1200 * time.Microsecond)
		h.Record(1856 * time.Microsecond)
	}
	if upper := bucketUpper(bucketOf(h.Max())); upper <= h.Max() {
		t.Fatalf("fixture: max %v is its bucket's upper bound %v", h.Max(), upper)
	}
	for _, q := range []float64{0.5, 0.99, 0.999, 1} {
		if got := h.Quantile(q); got > h.Max() {
			t.Errorf("Quantile(%v) = %v above max %v", q, got, h.Max())
		}
	}
	if got := h.Quantile(1); got != h.Max() {
		t.Errorf("p100 = %v, want the max %v", got, h.Max())
	}
}

func TestSLOCheck(t *testing.T) {
	res := Result{
		Requests: 1000, Errors: 0,
		Latency: map[string]OpStats{"all": {Count: 1000, P99Millis: 12, P999Milli: 80}},
	}
	if v := (SLO{P99: 50 * time.Millisecond, P999: 200 * time.Millisecond}).Check(res); len(v) != 0 {
		t.Errorf("healthy result violated SLO: %v", v)
	}
	if v := (SLO{P99: 10 * time.Millisecond}).Check(res); len(v) != 1 {
		t.Errorf("p99 breach not caught: %v", v)
	}
	if v := (SLO{P999: 50 * time.Millisecond}).Check(res); len(v) != 1 {
		t.Errorf("p999 breach not caught: %v", v)
	}
	res.Errors = 5
	if v := (SLO{}).Check(res); len(v) != 1 {
		t.Errorf("default SLO tolerates errors: %v", v)
	}
	if v := (SLO{MaxErrorRate: 0.01}).Check(res); len(v) != 0 {
		t.Errorf("error rate under budget still violated: %v", v)
	}
}

// An end-to-end run against a self-hosted 2-worker topology: every
// request must succeed, the request count must be exactly determined by
// the config, and the result must serialize with all operation classes
// populated.
func TestRunAgainstSelfHostedTopology(t *testing.T) {
	url, shutdown, err := SelfHost(2)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	cfg := Config{Target: url, Rate: 200, Sessions: 6, Jobs: 8, Seed: 3}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("load run had %d errors (of %d requests)", res.Errors, res.Requests)
	}
	// create + jobs + finalize + delete per session.
	want := int64(cfg.Sessions * (cfg.Jobs + 3))
	if res.Requests != want {
		t.Errorf("requests = %d, want %d", res.Requests, want)
	}
	for _, op := range []string{"create", "submit", "finalize", "all"} {
		st, ok := res.Latency[op]
		if !ok || st.Count == 0 {
			t.Errorf("operation class %q missing or empty: %+v", op, st)
		}
		if st.P50Millis <= 0 || st.MaxMillis < st.P50Millis {
			t.Errorf("operation class %q has nonsensical latencies: %+v", op, st)
		}
	}
	if res.Latency["submit"].Count != int64(cfg.Sessions*cfg.Jobs) {
		t.Errorf("submit count = %d, want %d", res.Latency["submit"].Count, cfg.Sessions*cfg.Jobs)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("result does not serialize: %v", err)
	}
	// A generous SLO holds; an absurd one is violated — the gate wiring
	// has teeth.
	if v := (SLO{P99: time.Minute}).Check(res); len(v) != 0 {
		t.Errorf("generous SLO violated: %v", v)
	}
	if v := (SLO{P99: time.Nanosecond}).Check(res); len(v) == 0 {
		t.Error("absurd SLO not violated")
	}
}

// The risk-stream probe rides a real run: it anchors on one snapshot,
// counts the deltas the fan-out delivered, and settles its end-of-run lag
// against the pull endpoint. The engine's final sequence is exactly the
// ingested event count — jobs decisions plus one final per session —
// and, absent resyncs, delivered + dropped + lag must account for every
// sequence number.
func TestRunRiskStreamProbe(t *testing.T) { checkRiskStreamProbe(t) }

// slowDial holds a request back before dialing.
type slowDial struct{ d time.Duration }

func (s slowDial) RoundTrip(r *http.Request) (*http.Response, error) {
	time.Sleep(s.d) //lint:allow wallclock — the delay under test is real time
	return http.DefaultTransport.RoundTrip(r)
}

// A subscription that dials late must still anchor before the run's first
// decision. When the sessions could start before the anchor arrived, a
// 5 ms dial delay lost the first decisions into the anchor on every run,
// and delivered + dropped + lag fell short of the end sequence by exactly
// the anchor's sequence — the intermittent "26 of 28".
func TestRunRiskStreamProbeSlowDial(t *testing.T) {
	saved := probeClient
	probeClient = &http.Client{Transport: slowDial{5 * time.Millisecond}}
	defer func() { probeClient = saved }()
	checkRiskStreamProbe(t)
}

func checkRiskStreamProbe(t *testing.T) {
	t.Helper()
	url, shutdown, err := SelfHost(2)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	cfg := Config{Target: url, Rate: 200, Sessions: 4, Jobs: 6, Seed: 11, RiskStream: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("load run had %d errors (of %d requests)", res.Errors, res.Requests)
	}
	rs := res.RiskStream
	if rs == nil {
		t.Fatal("RiskStream stats missing from result")
	}
	if rs.StreamError != "" {
		t.Fatalf("stream error: %s", rs.StreamError)
	}
	if rs.Snapshots != 1 {
		t.Errorf("snapshots = %d, want exactly the anchor", rs.Snapshots)
	}
	want := uint64(cfg.Sessions * (cfg.Jobs + 1))
	if rs.EndSeq != want {
		t.Errorf("end seq = %d, want %d (every decision + final)", rs.EndSeq, want)
	}
	if rs.LastSeq > rs.EndSeq {
		t.Errorf("last streamed seq %d beyond engine seq %d", rs.LastSeq, rs.EndSeq)
	}
	if rs.Deltas == 0 {
		t.Error("no deltas delivered to a live subscriber")
	}
	if rs.Resyncs == 0 {
		// Without resync re-anchoring, the sequence space is fully
		// accounted for: delivered, demonstrably dropped, or still pending
		// at shutdown.
		if got := rs.Deltas + rs.DroppedSeen + int64(rs.EndLag); got != int64(rs.EndSeq) {
			t.Errorf("delivered %d + dropped %d + lag %d = %d, want %d",
				rs.Deltas, rs.DroppedSeen, rs.EndLag, got, rs.EndSeq)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("result does not serialize: %v", err)
	}
}

// A target that accepts the subscription but never anchors it holds the
// probe's start back only for the wait it was given.
func TestRiskProbeSilentTargetDoesNotHang(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/risk/stream", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	})
	mux.HandleFunc("/v1/risk", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte(`{"seq":3}`)) })
	srv := httptest.NewServer(mux)
	defer srv.Close()
	st := startRiskProbe(srv.URL, 20*time.Millisecond).finish(srv.Client(), srv.URL)
	if st.Snapshots != 0 || st.StreamError != "" || st.EndSeq != 3 || st.EndLag != 3 {
		t.Errorf("silent target: %+v, want no anchor, no error, EndSeq 3 lag 3", st)
	}
}

// A dead target surfaces in the probe's StreamError instead of hanging
// the run, and a run without the flag reports no stream section at all.
func TestRiskStreamProbeErrorPaths(t *testing.T) {
	res, err := Run(Config{Target: "http://127.0.0.1:1", Rate: 500, Sessions: 2, Jobs: 2, RiskStream: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.RiskStream == nil || res.RiskStream.StreamError == "" {
		t.Fatalf("dead target: probe stats %+v, want a stream error", res.RiskStream)
	}

	res, err = Run(Config{Target: "http://127.0.0.1:1", Rate: 500, Sessions: 2, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.RiskStream != nil {
		t.Errorf("probe stats present without the flag: %+v", res.RiskStream)
	}
}

// Probe-level error paths against a scripted server: a refusing stream
// endpoint, malformed snapshot and delta frames, and a settle endpoint
// that answers garbage. Each must surface as StreamError, never a hang.
func TestRiskProbeScriptedFailures(t *testing.T) {
	serve := func(stream func(w http.ResponseWriter), risk string) *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/risk/stream", func(w http.ResponseWriter, r *http.Request) { stream(w) })
		mux.HandleFunc("/v1/risk", func(w http.ResponseWriter, r *http.Request) { w.Write([]byte(risk)) })
		return httptest.NewServer(mux)
	}
	// Every scripted stream terminates the probe goroutine on its own;
	// wait for its result before finish so the cancel in finish cannot
	// race the error and suppress it.
	settled := func(p *riskProbe) *riskProbe {
		st := <-p.result
		p.result <- st
		return p
	}

	srv := serve(func(w http.ResponseWriter) { w.WriteHeader(http.StatusTeapot) }, `{"seq":5}`)
	st := settled(startRiskProbe(srv.URL, 0)).finish(srv.Client(), srv.URL)
	srv.Close()
	if st.StreamError != "status 418" {
		t.Errorf("teapot stream: error %q, want status 418", st.StreamError)
	}
	if st.EndSeq != 5 || st.EndLag != 5 {
		t.Errorf("teapot stream settle: %+v, want EndSeq 5 lag 5", st)
	}

	srv = serve(func(w http.ResponseWriter) {
		w.Write([]byte("event: snapshot\ndata: {not json}\n\n"))
	}, `{"seq":0}`)
	st = settled(startRiskProbe(srv.URL, 0)).finish(srv.Client(), srv.URL)
	srv.Close()
	if st.StreamError == "" || st.Snapshots != 0 {
		t.Errorf("malformed snapshot: %+v, want a decode error before counting", st)
	}

	srv = serve(func(w http.ResponseWriter) {
		w.Write([]byte("event: snapshot\ndata: {\"seq\":1}\n\nevent: delta\ndata: {bad}\n\n"))
	}, `{"seq":1}`)
	st = settled(startRiskProbe(srv.URL, 0)).finish(srv.Client(), srv.URL)
	srv.Close()
	if st.StreamError == "" || st.Snapshots != 1 || st.Deltas != 0 {
		t.Errorf("malformed delta: %+v, want snapshot counted then a decode error", st)
	}

	srv = serve(func(w http.ResponseWriter) {
		w.Write([]byte("event: snapshot\ndata: {\"seq\":2}\n\n"))
	}, `not json`)
	st = settled(startRiskProbe(srv.URL, 0)).finish(srv.Client(), srv.URL)
	srv.Close()
	if st.StreamError == "" || st.EndSeq != 0 {
		t.Errorf("garbage settle: %+v, want a decode error and no EndSeq", st)
	}
}

func TestSelfHostValidation(t *testing.T) {
	if _, _, err := SelfHost(0); err == nil {
		t.Error("SelfHost(0) succeeded")
	}
}

// Error paths: a dead target counts every request as an error without
// failing the run; a live server answering wrong statuses does too; the
// zero config fills in every default.
func TestRunErrorPaths(t *testing.T) {
	res, err := Run(Config{Target: "http://127.0.0.1:1", Rate: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions != 16 || res.JobsPerSession != 20 {
		t.Errorf("defaults not applied: %+v", res)
	}
	if res.Requests == 0 || res.Errors != res.Requests {
		t.Errorf("dead target: %d errors of %d requests, want all", res.Errors, res.Requests)
	}

	// A teapot refuses every operation with an unexpected status: the
	// session is abandoned at create, one error per session.
	teapot := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	defer teapot.Close()
	res, err = Run(Config{Target: teapot.URL, Rate: 500, Sessions: 3, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 3 || res.Errors != 3 {
		t.Errorf("teapot target: %d errors of %d requests, want 3 of 3", res.Errors, res.Requests)
	}

	// Create succeeds but the job stream fails: the session abandons
	// mid-stream, so exactly two requests land per session.
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		w.Write([]byte(`{"id":"x"}`))
	})
	mux.HandleFunc("POST /v1/sessions/x/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})
	broken := httptest.NewServer(mux)
	defer broken.Close()
	res, err = Run(Config{Target: broken.URL, Rate: 500, Sessions: 2, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 4 || res.Errors != 2 {
		t.Errorf("mid-stream failure: %d errors of %d requests, want 2 of 4", res.Errors, res.Requests)
	}
}

// Record clamps negatives and Quantile clamps a vanishing q to the first
// observation.
func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	h.Record(-time.Second)
	h.Record(5 * time.Millisecond)
	if got := h.Quantile(1e-12); got != time.Microsecond {
		t.Errorf("vanishing q = %v, want the first bucket's bound", got)
	}
	if h.Count() != 2 {
		t.Errorf("count = %d, want 2", h.Count())
	}
}

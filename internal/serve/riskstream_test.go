package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/scheduler"
	"repro/internal/streamrisk"
	"repro/internal/workload"
)

// riskSnapshot pulls and decodes GET /v1/risk.
func riskSnapshot(t *testing.T, h http.Handler, query string) streamrisk.Snapshot {
	t.Helper()
	w := do(t, h, http.MethodGet, "/v1/risk"+query, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/risk%s: status %d: %s", query, w.Code, w.Body)
	}
	var snap streamrisk.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

func sessionScope(t *testing.T, snap streamrisk.Snapshot, id string) streamrisk.SessionScopeScores {
	t.Helper()
	for _, s := range snap.Sessions {
		if s.ID == id {
			return s
		}
	}
	t.Fatalf("session %q not in risk snapshot (have %d sessions)", id, len(snap.Sessions))
	return streamrisk.SessionScopeScores{}
}

// requireScoresEqual compares two Scores by their JSON bytes (injective on
// float bit patterns).
func requireScoresEqual(t *testing.T, label string, got, want streamrisk.Scores) {
	t.Helper()
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Errorf("%s: live scores diverged from offline recomputation:\nlive:    %s\noffline: %s", label, gb, wb)
	}
}

// The worker's risk surface across a session's whole life: scores build up
// during submits, the final settles the ratios, cumulative scores match the
// offline recomputation of the journal, and deletion forgets the session
// scope while aggregate scopes keep its history.
func TestRiskEndpointLifecycle(t *testing.T) {
	h := New(Config{RiskWindow: 8}).Handler()
	jobs := testTrace(t, 24, 5)
	var cr CreateSessionResponse
	mustDo(t, h, http.MethodPost, "/v1/sessions", CreateSessionRequest{Policy: "Libra", Model: "commodity"}, http.StatusCreated, &cr)
	for _, j := range jobs {
		mustDo(t, h, http.MethodPost, "/v1/sessions/"+cr.ID+"/jobs", submitReq(j), http.StatusOK, nil)
	}

	snap := riskSnapshot(t, h, "")
	ss := sessionScope(t, snap, cr.ID)
	if ss.Events != int64(len(jobs)) || ss.Finals != 0 {
		t.Fatalf("pre-final session scope: %+v", ss.Scores)
	}
	if ss.Policy != "Libra" || ss.Cluster != "commodity" {
		t.Fatalf("session scope labels: %+v", ss)
	}
	if snap.Global.Events != int64(len(jobs)) {
		t.Fatalf("global events = %d, want %d", snap.Global.Events, len(jobs))
	}

	mustDo(t, h, http.MethodPost, "/v1/sessions/"+cr.ID+"/finalize", nil, http.StatusOK, nil)
	jw := do(t, h, http.MethodGet, "/v1/sessions/"+cr.ID+"/journal", nil)
	if jw.Code != http.StatusOK {
		t.Fatalf("journal: %d", jw.Code)
	}
	rec, err := obs.ParseSessionJournal(jw.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	offline, err := streamrisk.OfflineScores(rec, 8)
	if err != nil {
		t.Fatal(err)
	}
	requireScoresEqual(t, "finalized session", sessionScope(t, riskSnapshot(t, h, ""), cr.ID).Scores, offline)

	// The ?session= filter narrows the scope list but keeps global context.
	filtered := riskSnapshot(t, h, "?session="+cr.ID)
	if len(filtered.Sessions) != 1 || filtered.Global.Events != int64(len(jobs)) {
		t.Fatalf("filtered snapshot: %d sessions, global events %d", len(filtered.Sessions), filtered.Global.Events)
	}

	mustDo(t, h, http.MethodDelete, "/v1/sessions/"+cr.ID, nil, http.StatusOK, nil)
	after := riskSnapshot(t, h, "")
	if len(after.Sessions) != 0 {
		t.Fatalf("session scope survived delete: %+v", after.Sessions)
	}
	if after.Global.Events != int64(len(jobs)) || after.Global.Finals != 1 {
		t.Fatalf("aggregate history lost on delete: %+v", after.Global)
	}
}

// Migration equivalence over the real HTTP surface: a session killed
// mid-stream and imported onto a fresh worker ends with that worker's live
// session scores byte-identical to the offline recomputation of the final
// journal — the engine's catch-up replay plus live tail is seamless.
func TestRiskStreamMigrationEquivalence(t *testing.T) {
	jobs := testTrace(t, 30, 9)
	create := CreateSessionRequest{Policy: "Libra+$", Model: "commodity"}
	rng := rand.New(rand.NewSource(42))
	k := 1 + rng.Intn(len(jobs)-1)

	id, crashJournal := killSession(t, New(Config{RiskWindow: 8}).Handler(), create, workload.CloneAll(jobs)[:k])
	hB := New(Config{RiskWindow: 8}).Handler()
	_, finalJournal := resumeSession(t, hB, id, crashJournal, workload.CloneAll(jobs)[k:])

	rec, err := obs.ParseSessionJournal(finalJournal)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := streamrisk.OfflineScores(rec, 8)
	if err != nil {
		t.Fatal(err)
	}
	requireScoresEqual(t, fmt.Sprintf("migrated kill@%d", k), sessionScope(t, riskSnapshot(t, hB, ""), id).Scores, offline)
}

// A release (cooperative migration hand-off) forgets the session scope on
// the exporting worker.
func TestRiskForgottenOnRelease(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	jobs := testTrace(t, 8, 3)
	id, _ := killSession(t, h, CreateSessionRequest{Policy: "FCFS-BF", Model: "commodity"}, jobs)
	w := do(t, h, http.MethodPost, "/worker/v1/sessions/"+id+"/release", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("release: %d: %s", w.Code, w.Body)
	}
	if n := len(riskSnapshot(t, h, "").Sessions); n != 0 {
		t.Fatalf("released session still in risk snapshot (%d sessions)", n)
	}
}

// A live SSE subscriber over the real daemon: snapshot frame, then a delta
// for each submit, scores matching the pull endpoint.
func TestRiskStreamSSELive(t *testing.T) {
	srv := New(Config{RiskWindow: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var cr CreateSessionResponse
	mustDo(t, srv.Handler(), http.MethodPost, "/v1/sessions", CreateSessionRequest{Policy: "Libra", Model: "commodity"}, http.StatusCreated, &cr)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/risk/stream?session="+cr.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := streamrisk.NewEventReader(resp.Body)
	ev, err := r.Next()
	if err != nil || ev.Event != streamrisk.EventSnapshot {
		t.Fatalf("first frame: %+v, %v", ev, err)
	}
	var anchor streamrisk.Snapshot
	if err := json.Unmarshal(ev.Data, &anchor); err != nil {
		t.Fatal(err)
	}

	jobs := testTrace(t, 5, 2)
	for _, j := range jobs {
		mustDo(t, srv.Handler(), http.MethodPost, "/v1/sessions/"+cr.ID+"/jobs", submitReq(j), http.StatusOK, nil)
	}

	var last streamrisk.Delta
	for i := 0; i < len(jobs); i++ {
		ev, err := r.Next()
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		if ev.Event != streamrisk.EventDelta {
			t.Fatalf("frame %d: %s", i, ev.Event)
		}
		if err := json.Unmarshal(ev.Data, &last); err != nil {
			t.Fatal(err)
		}
		if last.Seq <= anchor.Seq {
			t.Fatalf("delta seq %d not above anchor %d", last.Seq, anchor.Seq)
		}
	}
	if last.Session != cr.ID || last.SessionScores.Events != int64(len(jobs)) {
		t.Fatalf("final delta: %+v", last)
	}
	requireScoresEqual(t, "delta vs pull", last.SessionScores, sessionScope(t, riskSnapshot(t, srv.Handler(), ""), cr.ID).Scores)
}

// The acceptance-criteria regression: a stalled SSE subscriber (connected,
// never reading) must not block the admission path. Run with -race. The
// stalled stream just drops deltas; every submit completes.
func TestRiskStreamStalledSubscriberDoesNotBlockAdmission(t *testing.T) {
	srv := New(Config{RiskWindow: 8, MaxRiskSubscribers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/risk/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Deliberately never read resp.Body: the subscriber's channel fills and
	// stays full once the kernel/server buffers are saturated too.

	const sessions = 4
	jobsPer := testTrace(t, 50, 6)
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	done := make(chan struct{})
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var cr CreateSessionResponse
			w := do(t, srv.Handler(), http.MethodPost, "/v1/sessions", CreateSessionRequest{Policy: "Libra", Model: "commodity"})
			if w.Code != http.StatusCreated {
				errs <- fmt.Errorf("create: %d", w.Code)
				return
			}
			if err := json.Unmarshal(w.Body.Bytes(), &cr); err != nil {
				errs <- err
				return
			}
			for _, j := range workload.CloneAll(jobsPer) {
				w := do(t, srv.Handler(), http.MethodPost, "/v1/sessions/"+cr.ID+"/jobs", submitReq(j))
				if w.Code != http.StatusOK {
					errs <- fmt.Errorf("submit: %d: %s", w.Code, w.Body)
					return
				}
			}
		}(i)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	//lint:allow wallclock — liveness timeout for a real server under test, not simulation time
	case <-time.After(30 * time.Second):
		t.Fatal("admission blocked with a stalled /v1/risk/stream subscriber")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := srv.stream.Snapshot()
	if snap.Global.Events != sessions*int64(len(jobsPer)) {
		t.Fatalf("global events = %d, want %d", snap.Global.Events, sessions*len(jobsPer))
	}
}

// Subscriptions beyond MaxRiskSubscribers are shed with 503.
func TestRiskStreamSubscriberLimit(t *testing.T) {
	srv := New(Config{MaxRiskSubscribers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/risk/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first subscriber: %d", resp.StatusCode)
	}

	resp2, err := http.Get(ts.URL + "/v1/risk/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second subscriber: %d, want 503", resp2.StatusCode)
	}
}

// submitUnbounded applies a submit the way session.submit does but past its
// bounds check: the decision reaches the session's driver and its journal,
// whose observer feeds the streaming risk engine.
func submitUnbounded(t *testing.T, srv *Server, id string, j *workload.Job) {
	t.Helper()
	sess, ok := srv.store.get(id)
	if !ok {
		t.Fatalf("no session %s", id)
	}
	defer srv.store.release(sess)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	d, err := sess.driver.Submit(j)
	if err != nil {
		t.Fatal(err)
	}
	if d.Admission == scheduler.AdmissionRejected {
		t.Fatalf("job %d rejected; the overflow needs accepted jobs", j.ID)
	}
	sess.journal.Decision(decisionLine(j, d))
}

// The second line of defence behind the submit bounds: a sum that does
// overflow (two accepted bids of 1e308, applied past the HTTP boundary)
// makes GET /v1/risk, the report and finalize answer 500 with the
// encoder's error rather than an empty 200.
func TestRiskSnapshotOverflowAnswers500(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	var cr CreateSessionResponse
	mustDo(t, h, http.MethodPost, "/v1/sessions", CreateSessionRequest{Policy: "Libra", Model: "bid"}, http.StatusCreated, &cr)
	for i := 1; i <= 2; i++ {
		submitUnbounded(t, srv, cr.ID, &workload.Job{ID: i, Runtime: 100, Estimate: 100, Procs: 1, Deadline: 1000, Budget: 1e308})
	}
	w := do(t, h, http.MethodGet, "/v1/risk", nil)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("GET /v1/risk after an overflowing sum: status %d with %d body bytes, want 500", w.Code, w.Body.Len())
	}
	if !bytes.Contains(w.Body.Bytes(), []byte("unsupported value: +Inf")) {
		t.Errorf("500 body does not carry the encoder's error: %q", w.Body)
	}
	// The session's own report overflows too; its readers get the same 500
	// rather than an empty 200.
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/sessions/" + cr.ID + "/report"},
		{http.MethodPost, "/v1/sessions/" + cr.ID + "/finalize"},
	} {
		w := do(t, h, probe.method, probe.path, nil)
		if w.Code != http.StatusInternalServerError || !bytes.Contains(w.Body.Bytes(), []byte("unsupported value")) {
			t.Errorf("%s %s after an overflowing sum: status %d, body %q; want 500 with the encoder's error", probe.method, probe.path, w.Code, w.Body)
		}
	}
}

// Client values are bounded at the boundary: a submit whose money or time
// field exceeds maxClientValue answers 400 naming the field and changes
// nothing, so a /v1/risk/stream subscriber opened before it still receives
// the next accepted decision's delta. A create with an out-of-range base
// price or fault horizon, and an imported journal carrying an
// out-of-range decision, are refused the same way.
func TestSubmitBoundsKeepStreamAlive(t *testing.T) {
	srv := New(Config{RiskWindow: 8})
	h := srv.Handler()
	ts := httptest.NewServer(h)
	defer ts.Close()
	var cr CreateSessionResponse
	mustDo(t, h, http.MethodPost, "/v1/sessions", CreateSessionRequest{Policy: "Libra", Model: "bid"}, http.StatusCreated, &cr)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/risk/stream?session="+cr.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := streamrisk.NewEventReader(resp.Body)
	if ev, err := r.Next(); err != nil || ev.Event != streamrisk.EventSnapshot {
		t.Fatalf("first frame: %+v, %v", ev, err)
	}

	ok := SubmitJobRequest{Runtime: 100, Deadline: 1000, Budget: 500}
	for _, tc := range []struct {
		field string
		set   func(*SubmitJobRequest)
	}{
		{"budget", func(q *SubmitJobRequest) { q.Budget = 1e308 }},
		{"submit", func(q *SubmitJobRequest) { q.Submit = 2e15 }},
		{"advance", func(q *SubmitJobRequest) { q.Advance = 2e15 }},
		{"runtime", func(q *SubmitJobRequest) { q.Runtime = 1e300 }},
		{"estimate", func(q *SubmitJobRequest) { q.Estimate = 1e16 }},
		{"deadline", func(q *SubmitJobRequest) { q.Deadline = 1e308 }},
		{"penalty_rate", func(q *SubmitJobRequest) { q.PenaltyRate = -1e308 }},
	} {
		bad := ok
		tc.set(&bad)
		w := do(t, h, http.MethodPost, "/v1/sessions/"+cr.ID+"/jobs", bad)
		if w.Code != http.StatusBadRequest || !bytes.Contains(w.Body.Bytes(), []byte(tc.field)) {
			t.Errorf("submit with an out-of-range %s: status %d, body %q; want 400 naming the field", tc.field, w.Code, w.Body)
		}
	}
	var sr SubmitJobResponse
	mustDo(t, h, http.MethodPost, "/v1/sessions/"+cr.ID+"/jobs", ok, http.StatusOK, &sr)
	if sr.Admission == "rejected" {
		t.Fatal("the in-range submit was rejected")
	}
	ev, err := r.Next()
	if err != nil || ev.Event != streamrisk.EventDelta {
		t.Fatalf("frame after the refused submits: %+v, %v; want the accepted decision's delta", ev, err)
	}
	var d streamrisk.Delta
	if err := json.Unmarshal(ev.Data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Session != cr.ID || d.SessionScores.Events != 1 {
		t.Fatalf("delta after the refused submits: %+v, want the session's first decision", d)
	}

	// The session's money and time parameters are bounded at create too.
	for _, bad := range []CreateSessionRequest{
		{Policy: "Libra", Model: "bid", BasePrice: 1e308},
		{Policy: "Libra", Model: "bid", FaultIntensity: "high", FaultHorizon: 1e300},
	} {
		w := do(t, h, http.MethodPost, "/v1/sessions", bad)
		field := "base_price"
		if bad.FaultHorizon != 0 {
			field = "fault_horizon"
		}
		if w.Code != http.StatusBadRequest || !bytes.Contains(w.Body.Bytes(), []byte(field)) {
			t.Errorf("create with an out-of-range %s: status %d, body %q; want 400 naming the field", field, w.Code, w.Body)
		}
	}

	// A journal whose decision holds an unbounded budget (written past the
	// boundary) cannot come back in through import.
	var cr2 CreateSessionResponse
	mustDo(t, h, http.MethodPost, "/v1/sessions", CreateSessionRequest{Policy: "Libra", Model: "bid"}, http.StatusCreated, &cr2)
	submitUnbounded(t, srv, cr2.ID, &workload.Job{ID: 1, Runtime: 100, Estimate: 100, Procs: 1, Deadline: 1000, Budget: 1e308})
	journal := mustDo(t, h, http.MethodGet, "/v1/sessions/"+cr2.ID+"/journal", nil, http.StatusOK, nil).Body.Bytes()
	w := doRaw(t, New(Config{}).Handler(), http.MethodPost, "/worker/v1/sessions/import", journal)
	if w.Code != http.StatusBadRequest || !bytes.Contains(w.Body.Bytes(), []byte("budget")) {
		t.Errorf("import of an unbounded budget: status %d, body %q; want 400 naming the field", w.Code, w.Body)
	}
}

// The bound leaves room: sessions whose every money and time value sits at
// maxClientValue still encode their risk snapshot, report and final. The
// Libra+$ session quotes each job near its price ceiling, ~1e33, and
// refuses it against its 1e15 budget; the Libra bid session accepts jobs
// at the bound. Sums grow linearly in the decisions, so a journal's ~100k
// decisions stay far inside float64's range.
func TestLargestBoundedValuesEncode(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	accepted := 0
	for _, create := range []CreateSessionRequest{
		{Policy: "Libra+$", Model: "commodity", BasePrice: maxClientValue},
		{Policy: "Libra", Model: "bid", BasePrice: maxClientValue},
	} {
		var cr CreateSessionResponse
		mustDo(t, h, http.MethodPost, "/v1/sessions", create, http.StatusCreated, &cr)
		for i := 0; i < 200; i++ {
			mustDo(t, h, http.MethodPost, "/v1/sessions/"+cr.ID+"/jobs", SubmitJobRequest{
				Submit: maxClientValue, Runtime: maxClientValue, Estimate: maxClientValue, Procs: 1 + i%4,
				Deadline: maxClientValue, Budget: maxClientValue, PenaltyRate: maxClientValue,
			}, http.StatusOK, nil)
		}
		mustDo(t, h, http.MethodGet, "/v1/risk", nil, http.StatusOK, nil)
		mustDo(t, h, http.MethodGet, "/v1/sessions/"+cr.ID+"/report", nil, http.StatusOK, nil)
		var rep ReportResponse
		mustDo(t, h, http.MethodPost, "/v1/sessions/"+cr.ID+"/finalize", nil, http.StatusOK, &rep)
		accepted += rep.Report.Accepted
	}
	if accepted == 0 {
		t.Error("no job accepted at the bound; the accepted sums were never exercised")
	}
	mustDo(t, h, http.MethodGet, "/v1/risk", nil, http.StatusOK, nil)
}

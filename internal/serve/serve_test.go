package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/economy"
	"repro/internal/faults"
	"repro/internal/qos"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// do runs one request through the server's handler and returns the
// recorder.
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

// mustDo is do plus a status assertion and a JSON decode of the response.
func mustDo(t *testing.T, h http.Handler, method, path string, body any, wantStatus int, out any) *httptest.ResponseRecorder {
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
	return w
}

// testTrace synthesizes a small QoS workload for scripted sessions.
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

// submitReq converts a trace job into its API form.
func submitReq(j *workload.Job) SubmitJobRequest {
	return SubmitJobRequest{
		ID: j.ID, Submit: j.Submit, Runtime: j.Runtime, Estimate: j.Estimate,
		Procs: j.Procs, Deadline: j.Deadline, Budget: j.Budget,
		PenaltyRate: j.PenaltyRate, HighUrgency: j.HighUrgency,
	}
}

// driveSession runs one scripted session — create, submit every job,
// finalize — and returns the final report body and the journal body. The
// Journal-Line values of the create, the submits and the finalize, one a
// line, must add up to the journal byte for byte.
func driveSession(t *testing.T, h http.Handler, create CreateSessionRequest, jobs []*workload.Job) (report, journal []byte) {
	t.Helper()
	var lines bytes.Buffer
	line := func(w *httptest.ResponseRecorder) {
		lines.WriteString(w.Header().Get(JournalLineHeader) + "\n")
	}
	var cr CreateSessionResponse
	line(mustDo(t, h, http.MethodPost, "/v1/sessions", create, http.StatusCreated, &cr))
	for i, j := range jobs {
		var sr SubmitJobResponse
		line(mustDo(t, h, http.MethodPost, "/v1/sessions/"+cr.ID+"/jobs", submitReq(j), http.StatusOK, &sr))
		if sr.Job != j.ID {
			t.Fatalf("job %d echoed as %d", j.ID, sr.Job)
		}
		if i%23 == 0 { // interleaved reads must not perturb the simulation
			mustDo(t, h, http.MethodGet, "/v1/sessions/"+cr.ID+"/report", nil, http.StatusOK, nil)
		}
	}
	fin := do(t, h, http.MethodPost, "/v1/sessions/"+cr.ID+"/finalize", nil)
	if fin.Code != http.StatusOK {
		t.Fatalf("finalize: status %d: %s", fin.Code, fin.Body)
	}
	line(fin)
	jw := do(t, h, http.MethodGet, "/v1/sessions/"+cr.ID+"/journal", nil)
	if jw.Code != http.StatusOK {
		t.Fatalf("journal: status %d: %s", jw.Code, jw.Body)
	}
	if !bytes.Equal(lines.Bytes(), jw.Body.Bytes()) {
		t.Errorf("Journal-Line values differ from the journal:\nlines:\n%s\njournal:\n%s", lines.Bytes(), jw.Body)
	}
	mustDo(t, h, http.MethodDelete, "/v1/sessions/"+cr.ID, nil, http.StatusOK, nil)
	return fin.Body.Bytes(), jw.Body.Bytes()
}

// The service-level determinism bridge: replaying the same scripted
// request sequence against two fresh daemons yields byte-identical report
// and journal bodies, and the report agrees byte-for-byte with the
// equivalent offline scheduler.Run — with and without fault injection.
func TestServeDeterminismBridge(t *testing.T) {
	jobs := testTrace(t, 120, 3)
	horizon := faults.JobsHorizon(jobs)
	cases := []struct {
		name   string
		create CreateSessionRequest
		spec   string
		model  economy.Model
	}{
		{"libra-dollar", CreateSessionRequest{Policy: "Libra+$", Model: "commodity"}, "Libra+$", economy.Commodity},
		{"edf-bf-bid", CreateSessionRequest{Policy: "EDF-BF", Model: "bid"}, "EDF-BF", economy.BidBased},
		{"fcfs-bf-faults", CreateSessionRequest{Policy: "FCFS-BF", Model: "commodity",
			Seed: 7, FaultIntensity: "high", FaultHorizon: horizon}, "FCFS-BF", economy.Commodity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep1, jr1 := driveSession(t, New(Config{}).Handler(), tc.create, workload.CloneAll(jobs))
			rep2, jr2 := driveSession(t, New(Config{}).Handler(), tc.create, workload.CloneAll(jobs))
			if !bytes.Equal(rep1, rep2) {
				t.Errorf("report bodies differ across replays:\n%s\nvs\n%s", rep1, rep2)
			}
			if !bytes.Equal(jr1, jr2) {
				t.Errorf("journal bodies differ across replays:\n%s\nvs\n%s", jr1, jr2)
			}

			// The offline batch run must produce the very same report.
			spec, err := scheduler.SpecByName(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := scheduler.RunConfig{Nodes: 128, Model: tc.model, BasePrice: economy.DefaultBasePrice}
			if tc.create.FaultIntensity != "" {
				f := faults.Intensity(tc.create.FaultIntensity).Config(tc.create.Seed, tc.create.FaultHorizon)
				cfg.Faults = &f
			}
			offline, err := scheduler.Run(workload.CloneAll(jobs), spec.New, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got ReportResponse
			if err := json.Unmarshal(rep1, &got); err != nil {
				t.Fatal(err)
			}
			gotB, err := json.Marshal(got.Report)
			if err != nil {
				t.Fatal(err)
			}
			wantB, err := json.Marshal(offline)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotB, wantB) {
				t.Errorf("online session diverged from offline Run:\nonline:  %s\noffline: %s", gotB, wantB)
			}
		})
	}
}

// 32+ concurrent sessions under the race detector: every session's final
// report must still match its own offline run — full isolation between
// sessions sharing the registry.
func TestServeConcurrentSessions(t *testing.T) {
	const sessions = 36
	srv := New(Config{MaxSessions: sessions, MaxConcurrent: sessions * 2})
	h := srv.Handler()
	specs := scheduler.Specs()
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := specs[i%len(specs)]
			model := spec.Models[i%len(spec.Models)]
			modelName := "commodity"
			if model == economy.BidBased {
				modelName = "bid"
			}
			synth := workload.DefaultSynthConfig()
			synth.Jobs = 40
			jobs, err := workload.Generate(synth, int64(i)+100)
			if err != nil {
				errs <- err
				return
			}
			if err := qos.Synthesize(jobs, qos.DefaultConfig(int64(i)+200)); err != nil {
				errs <- err
				return
			}

			var cr CreateSessionResponse
			w := do(t, h, http.MethodPost, "/v1/sessions", CreateSessionRequest{Policy: spec.Name, Model: modelName})
			if w.Code != http.StatusCreated {
				errs <- fmt.Errorf("session %d: create status %d: %s", i, w.Code, w.Body)
				return
			}
			if err := json.Unmarshal(w.Body.Bytes(), &cr); err != nil {
				errs <- err
				return
			}
			for _, j := range workload.CloneAll(jobs) {
				w := do(t, h, http.MethodPost, "/v1/sessions/"+cr.ID+"/jobs", submitReq(j))
				if w.Code != http.StatusOK {
					errs <- fmt.Errorf("session %d: submit job %d status %d: %s", i, j.ID, w.Code, w.Body)
					return
				}
			}
			w = do(t, h, http.MethodDelete, "/v1/sessions/"+cr.ID, nil)
			if w.Code != http.StatusOK {
				errs <- fmt.Errorf("session %d: delete status %d: %s", i, w.Code, w.Body)
				return
			}
			var final ReportResponse
			if err := json.Unmarshal(w.Body.Bytes(), &final); err != nil {
				errs <- err
				return
			}
			offline, err := scheduler.Run(jobs, spec.New,
				scheduler.RunConfig{Nodes: 128, Model: model, BasePrice: economy.DefaultBasePrice})
			if err != nil {
				errs <- err
				return
			}
			if final.Report != offline {
				errs <- fmt.Errorf("session %d (%s/%s): online %+v != offline %+v", i, spec.Name, model, final.Report, offline)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := srv.Sessions(); n != 0 {
		t.Errorf("%d sessions left after every session was deleted", n)
	}
}

// The admission limiter sheds load with 503 + Retry-After instead of
// queueing without bound.
func TestServeConcurrencyLimit(t *testing.T) {
	srv := New(Config{MaxConcurrent: 1})
	srv.sem <- struct{}{} // occupy the only slot
	w := do(t, srv.Handler(), http.MethodPost, "/v1/sessions", CreateSessionRequest{Policy: "Libra", Model: "commodity"})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	<-srv.sem
	w = do(t, srv.Handler(), http.MethodPost, "/v1/sessions", CreateSessionRequest{Policy: "Libra", Model: "commodity"})
	if w.Code != http.StatusCreated {
		t.Fatalf("after release: status %d, want 201: %s", w.Code, w.Body)
	}
}

// The registry capacity limit sheds creates with 503; existing sessions
// keep serving.
func TestServeSessionCapacity(t *testing.T) {
	srv := New(Config{MaxSessions: 1})
	h := srv.Handler()
	var cr CreateSessionResponse
	mustDo(t, h, http.MethodPost, "/v1/sessions", CreateSessionRequest{Policy: "Libra", Model: "commodity"}, http.StatusCreated, &cr)
	w := do(t, h, http.MethodPost, "/v1/sessions", CreateSessionRequest{Policy: "Libra", Model: "commodity"})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity create: status %d, want 503", w.Code)
	}
	mustDo(t, h, http.MethodGet, "/v1/sessions/"+cr.ID+"/report", nil, http.StatusOK, nil)
	mustDo(t, h, http.MethodDelete, "/v1/sessions/"+cr.ID, nil, http.StatusOK, nil)
	mustDo(t, h, http.MethodPost, "/v1/sessions", CreateSessionRequest{Policy: "Libra", Model: "commodity"}, http.StatusCreated, nil)
}

// Idle sessions are evicted on sweep; touched sessions survive.
func TestServeIdleEviction(t *testing.T) {
	clock := time.Unix(1000, 0)
	srv := New(Config{IdleTimeout: time.Minute, Now: func() time.Time { return clock }})
	h := srv.Handler()
	var idle, busy CreateSessionResponse
	mustDo(t, h, http.MethodPost, "/v1/sessions", CreateSessionRequest{Policy: "Libra", Model: "commodity"}, http.StatusCreated, &idle)
	mustDo(t, h, http.MethodPost, "/v1/sessions", CreateSessionRequest{Policy: "EDF-BF", Model: "commodity"}, http.StatusCreated, &busy)
	clock = clock.Add(45 * time.Second)
	mustDo(t, h, http.MethodGet, "/v1/sessions/"+busy.ID+"/report", nil, http.StatusOK, nil) // touch
	clock = clock.Add(30 * time.Second)
	evicted := srv.SweepIdle()
	if len(evicted) != 1 || evicted[0] != idle.ID {
		t.Fatalf("evicted %v, want [%s]", evicted, idle.ID)
	}
	if w := do(t, h, http.MethodGet, "/v1/sessions/"+idle.ID+"/report", nil); w.Code != http.StatusNotFound {
		t.Errorf("evicted session report: status %d, want 404", w.Code)
	}
	mustDo(t, h, http.MethodGet, "/v1/sessions/"+busy.ID+"/report", nil, http.StatusOK, nil)
}

// Invalid requests are refused with 400s that say what's wrong.
func TestServeValidation(t *testing.T) {
	h := New(Config{}).Handler()
	badCreates := []CreateSessionRequest{
		{Policy: "Libra", Model: "barter"},
		{Policy: "NoSuchPolicy", Model: "commodity"},
		{Policy: "SJF-BF", Model: "bid"}, // outside Table V
		{Policy: "Libra", Model: "commodity", FaultIntensity: "apocalyptic"},
		{Policy: "Libra", Model: "commodity", FaultIntensity: "high"}, // no horizon
		{Policy: "Libra", Model: "commodity", FaultHorizon: 100},      // horizon without intensity
		{Policy: "Libra", Model: "commodity", Nodes: -1},
	}
	for _, req := range badCreates {
		if w := do(t, h, http.MethodPost, "/v1/sessions", req); w.Code != http.StatusBadRequest {
			t.Errorf("create %+v: status %d, want 400", req, w.Code)
		}
	}

	var cr CreateSessionResponse
	mustDo(t, h, http.MethodPost, "/v1/sessions", CreateSessionRequest{Policy: "Libra", Model: "commodity"}, http.StatusCreated, &cr)
	path := "/v1/sessions/" + cr.ID + "/jobs"
	badSubmits := []SubmitJobRequest{
		{Runtime: 10, Deadline: 20, Budget: 5, Submit: 3, Advance: 4}, // both time forms
		{Runtime: 0, Deadline: 20, Budget: 5},                         // invalid shape
		{Runtime: 10, Deadline: 20, Budget: 5, Procs: 999},            // wider than the machine
		{Runtime: 10}, // no QoS
	}
	for _, req := range badSubmits {
		if w := do(t, h, http.MethodPost, path, req); w.Code != http.StatusBadRequest {
			t.Errorf("submit %+v: status %d, want 400", req, w.Code)
		}
	}
	if w := do(t, h, http.MethodPost, "/v1/sessions/s-404/jobs", SubmitJobRequest{Runtime: 1, Deadline: 2, Budget: 3}); w.Code != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", w.Code)
	}
	// Unknown fields fail loudly.
	if w := do(t, h, http.MethodPost, path, map[string]any{"runtine": 10}); w.Code != http.StatusBadRequest {
		t.Errorf("mistyped field: status %d, want 400", w.Code)
	}
	// Submitting to a finalized session conflicts.
	mustDo(t, h, http.MethodPost, "/v1/sessions/"+cr.ID+"/finalize", nil, http.StatusOK, nil)
	if w := do(t, h, http.MethodPost, path, SubmitJobRequest{Runtime: 1, Deadline: 2, Budget: 3}); w.Code != http.StatusConflict {
		t.Errorf("submit after finalize: status %d, want 409", w.Code)
	}
}

// The advance form schedules relative to the session's virtual now, and
// default job numbering is sequential.
func TestServeAdvanceAndDefaults(t *testing.T) {
	h := New(Config{}).Handler()
	var cr CreateSessionResponse
	mustDo(t, h, http.MethodPost, "/v1/sessions", CreateSessionRequest{Policy: "Libra", Model: "commodity", Nodes: 4}, http.StatusCreated, &cr)
	path := "/v1/sessions/" + cr.ID + "/jobs"
	var s1, s2 SubmitJobResponse
	mustDo(t, h, http.MethodPost, path, SubmitJobRequest{Submit: 10, Runtime: 50, Deadline: 100, Budget: 1000}, http.StatusOK, &s1)
	if s1.Job != 1 || s1.Now != 10 {
		t.Fatalf("first submit: %+v", s1)
	}
	mustDo(t, h, http.MethodPost, path, SubmitJobRequest{Advance: 5, Runtime: 50, Deadline: 100, Budget: 1000}, http.StatusOK, &s2)
	if s2.Job != 2 || s2.Now != 15 {
		t.Fatalf("advance submit: %+v", s2)
	}
}

// Health and observability endpoints respond.
func TestServeHealthAndVars(t *testing.T) {
	h := New(Config{}).Handler()
	var health struct {
		Status   string `json:"status"`
		Sessions int    `json:"sessions"`
	}
	mustDo(t, h, http.MethodGet, "/healthz", nil, http.StatusOK, &health)
	if health.Status != "ok" {
		t.Errorf("health: %+v", health)
	}
	w := do(t, h, http.MethodGet, "/debug/vars", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "serve.sessions_created") {
		t.Errorf("/debug/vars: status %d, body %.120s", w.Code, w.Body)
	}
}

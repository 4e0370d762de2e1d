package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/economy"
	"repro/internal/faults"
	"repro/internal/scheduler"
	"repro/internal/workload"
)

// doRaw posts a raw (non-JSON-marshaled) body.
func doRaw(t *testing.T, h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// migrationCase is one (policy, model) pair rotated through the battery.
type migrationCase struct {
	policy, model string
	econ          economy.Model
}

// tableVCases enumerates every Table V (policy, model) pair once.
func tableVCases(t *testing.T) []migrationCase {
	t.Helper()
	var cases []migrationCase
	for _, spec := range scheduler.Specs() {
		for _, m := range spec.Models {
			name := "commodity"
			if m == economy.BidBased {
				name = "bid"
			}
			cases = append(cases, migrationCase{spec.Name, name, m})
		}
	}
	return cases
}

// killSession drives a session up to the kill point and returns the
// journal bytes as they stood at the crash — the worker is then abandoned
// without finalize, release, or delete, exactly as a crash leaves it.
func killSession(t *testing.T, h http.Handler, create CreateSessionRequest, jobs []*workload.Job) (id string, journal []byte) {
	t.Helper()
	var cr CreateSessionResponse
	mustDo(t, h, http.MethodPost, "/v1/sessions", create, http.StatusCreated, &cr)
	for _, j := range jobs {
		mustDo(t, h, http.MethodPost, "/v1/sessions/"+cr.ID+"/jobs", submitReq(j), http.StatusOK, nil)
	}
	w := do(t, h, http.MethodGet, "/v1/sessions/"+cr.ID+"/journal", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("journal at kill point: status %d: %s", w.Code, w.Body)
	}
	return cr.ID, w.Body.Bytes()
}

// resumeSession imports a journal into a fresh worker over the worker API,
// submits the remaining jobs, finalizes, and returns the final report and
// journal bodies.
func resumeSession(t *testing.T, h http.Handler, id string, journal []byte, rest []*workload.Job) (report, finalJournal []byte) {
	t.Helper()
	w := doRaw(t, h, http.MethodPost, "/worker/v1/sessions/import", journal)
	if w.Code != http.StatusCreated {
		t.Fatalf("import: status %d: %s", w.Code, w.Body)
	}
	var ir ImportSessionResponse
	if err := json.Unmarshal(w.Body.Bytes(), &ir); err != nil {
		t.Fatal(err)
	}
	if ir.ID != id {
		t.Fatalf("import echoed session %q, want %q", ir.ID, id)
	}
	for _, j := range rest {
		mustDo(t, h, http.MethodPost, "/v1/sessions/"+id+"/jobs", submitReq(j), http.StatusOK, nil)
	}
	fin := do(t, h, http.MethodPost, "/v1/sessions/"+id+"/finalize", nil)
	if fin.Code != http.StatusOK {
		t.Fatalf("finalize after migration: status %d: %s", fin.Code, fin.Body)
	}
	jw := do(t, h, http.MethodGet, "/v1/sessions/"+id+"/journal", nil)
	if jw.Code != http.StatusOK {
		t.Fatalf("journal after migration: status %d: %s", jw.Code, jw.Body)
	}
	return fin.Body.Bytes(), jw.Body.Bytes()
}

// The migration determinism battery: across seeds × fault intensities, a
// session killed at a seeded random decision boundary and replayed onto a
// fresh worker finishes with a final report and journal byte-identical to
// an uninterrupted run — and the report agrees byte-for-byte with the
// offline scheduler.Run over the same trace. This is the property the
// whole service plane leans on: migration (rebalance, drain, crash
// recovery) cannot change a single byte any client observes.
func TestMigrationReplayBattery(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	const jobsPerSession = 40
	cases := tableVCases(t)
	intensities := []string{"none", "low", "high"}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for fi, intensity := range intensities {
			mc := cases[(int(seed)*len(intensities)+fi)%len(cases)]
			t.Run(fmt.Sprintf("seed=%d/faults=%s/%s-%s", seed, intensity, mc.policy, mc.model), func(t *testing.T) {
				jobs := testTrace(t, jobsPerSession, seed)
				create := CreateSessionRequest{Policy: mc.policy, Model: mc.model}
				if intensity != "none" {
					create.Seed = seed
					create.FaultIntensity = intensity
					create.FaultHorizon = faults.JobsHorizon(jobs)
				}

				// Uninterrupted online reference.
				repRef, jrRef := driveSession(t, New(Config{}).Handler(), create, workload.CloneAll(jobs))

				// Killed-and-migrated run: the kill point is a seeded random
				// decision boundary (0 = killed right after create).
				rng := rand.New(rand.NewSource(seed * 7919))
				k := rng.Intn(len(jobs))
				id, crashJournal := killSession(t, New(Config{}).Handler(), create, workload.CloneAll(jobs)[:k])
				rep, jr := resumeSession(t, New(Config{}).Handler(), id, crashJournal, workload.CloneAll(jobs)[k:])

				if !bytes.Equal(jr, jrRef) {
					t.Errorf("kill@%d: migrated journal diverged from uninterrupted run:\nmigrated:\n%s\nuninterrupted:\n%s", k, jr, jrRef)
				}
				if !bytes.Equal(rep, repRef) {
					t.Errorf("kill@%d: migrated final report diverged from uninterrupted run:\nmigrated:  %s\nuninterrupted: %s", k, rep, repRef)
				}

				// The offline batch run pins the same report.
				spec, err := scheduler.SpecByName(mc.policy)
				if err != nil {
					t.Fatal(err)
				}
				cfg := scheduler.RunConfig{Nodes: 128, Model: mc.econ, BasePrice: economy.DefaultBasePrice}
				if intensity != "none" {
					f := faults.Intensity(intensity).Config(seed, create.FaultHorizon)
					cfg.Faults = &f
				}
				offline, err := scheduler.Run(workload.CloneAll(jobs), spec.New, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var got ReportResponse
				if err := json.Unmarshal(rep, &got); err != nil {
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
					t.Errorf("kill@%d: migrated session diverged from offline Run:\nonline:  %s\noffline: %s", k, gotB, wantB)
				}
			})
		}
	}
}

// A finalized session migrates too: the journal's final line is replayed
// and the restored session stays finalized (submit conflicts, report
// serves the fixed final report).
func TestMigrationOfFinalizedSession(t *testing.T) {
	jobs := testTrace(t, 20, 11)
	create := CreateSessionRequest{Policy: "Libra+$", Model: "commodity"}
	hA := New(Config{}).Handler()
	var cr CreateSessionResponse
	mustDo(t, hA, http.MethodPost, "/v1/sessions", create, http.StatusCreated, &cr)
	for _, j := range jobs {
		mustDo(t, hA, http.MethodPost, "/v1/sessions/"+cr.ID+"/jobs", submitReq(j), http.StatusOK, nil)
	}
	mustDo(t, hA, http.MethodPost, "/v1/sessions/"+cr.ID+"/finalize", nil, http.StatusOK, nil)
	jw := do(t, hA, http.MethodGet, "/v1/sessions/"+cr.ID+"/journal", nil)
	if jw.Code != http.StatusOK {
		t.Fatalf("journal: %d", jw.Code)
	}

	srvB := New(Config{})
	hB := srvB.Handler()
	w := doRaw(t, hB, http.MethodPost, "/worker/v1/sessions/import", jw.Body.Bytes())
	if w.Code != http.StatusCreated {
		t.Fatalf("import of finalized session: status %d: %s", w.Code, w.Body)
	}
	jB := do(t, hB, http.MethodGet, "/v1/sessions/"+cr.ID+"/journal", nil)
	if !bytes.Equal(jB.Body.Bytes(), jw.Body.Bytes()) {
		t.Errorf("finalized journal diverged across migration:\ngot:\n%s\nwant:\n%s", jB.Body, jw.Body)
	}
	if w := do(t, hB, http.MethodPost, "/v1/sessions/"+cr.ID+"/jobs", SubmitJobRequest{Runtime: 1, Deadline: 2, Budget: 3}); w.Code != http.StatusConflict {
		t.Errorf("submit to migrated finalized session: status %d, want 409", w.Code)
	}
	// Finalize is idempotent post-migration; the journal gains no second
	// final line.
	mustDo(t, hB, http.MethodPost, "/v1/sessions/"+cr.ID+"/finalize", nil, http.StatusOK, nil)
	jB2 := do(t, hB, http.MethodGet, "/v1/sessions/"+cr.ID+"/journal", nil)
	if !bytes.Equal(jB2.Body.Bytes(), jw.Body.Bytes()) {
		t.Error("re-finalize after migration changed the journal")
	}
}

// Release hands the session off without finalizing: the exported journal
// has no final line, the source worker forgets the session, and a tampered
// journal is refused with the diverging line.
func TestReleaseAndImportContract(t *testing.T) {
	jobs := testTrace(t, 10, 5)
	srvA := New(Config{})
	hA := srvA.Handler()
	var cr CreateSessionResponse
	mustDo(t, hA, http.MethodPost, "/v1/sessions", CreateSessionRequest{Policy: "Libra", Model: "commodity"}, http.StatusCreated, &cr)
	for _, j := range jobs[:5] {
		mustDo(t, hA, http.MethodPost, "/v1/sessions/"+cr.ID+"/jobs", submitReq(j), http.StatusOK, nil)
	}
	rel := do(t, hA, http.MethodPost, "/worker/v1/sessions/"+cr.ID+"/release", nil)
	if rel.Code != http.StatusOK {
		t.Fatalf("release: status %d: %s", rel.Code, rel.Body)
	}
	if strings.Contains(rel.Body.String(), `"kind":"final"`) {
		t.Error("released journal carries a final line; release must not finalize")
	}
	if w := do(t, hA, http.MethodGet, "/v1/sessions/"+cr.ID+"/report", nil); w.Code != http.StatusNotFound {
		t.Errorf("released session still live on source worker: status %d", w.Code)
	}
	if srvA.Sessions() != 0 {
		t.Errorf("source worker still counts %d sessions after release", srvA.Sessions())
	}

	// A tampered journal (changed quote) must be refused: replay would not
	// reproduce what the client was told.
	tampered := bytes.Replace(rel.Body.Bytes(), []byte(`"quote":`), []byte(`"quote":9e9,"x_":`), 1)
	srvB := New(Config{})
	if _, err := srvB.ImportSession(tampered); err == nil {
		t.Error("tampered journal imported successfully")
	}

	// The genuine journal imports, resumes, and a duplicate import is a
	// conflict.
	hB := srvB.Handler()
	w := doRaw(t, hB, http.MethodPost, "/worker/v1/sessions/import", rel.Body.Bytes())
	if w.Code != http.StatusCreated {
		t.Fatalf("import: status %d: %s", w.Code, w.Body)
	}
	if w := doRaw(t, hB, http.MethodPost, "/worker/v1/sessions/import", rel.Body.Bytes()); w.Code != http.StatusConflict {
		t.Errorf("duplicate import: status %d, want 409", w.Code)
	}
	for _, j := range jobs[5:] {
		mustDo(t, hB, http.MethodPost, "/v1/sessions/"+cr.ID+"/jobs", submitReq(j), http.StatusOK, nil)
	}
	mustDo(t, hB, http.MethodPost, "/v1/sessions/"+cr.ID+"/finalize", nil, http.StatusOK, nil)
}

// Job IDs are client-supplied and may repeat. A Libra+$ quote sums the
// node's bookings, so its bits must not depend on how equal IDs happen to
// be ordered: released and imported, a session with duplicate IDs replays
// byte-identical.
func TestDuplicateJobIDsReplayByteIdentical(t *testing.T) {
	srvA := New(Config{})
	hA := srvA.Handler()
	var cr CreateSessionResponse
	mustDo(t, hA, http.MethodPost, "/v1/sessions", CreateSessionRequest{Policy: "Libra+$", Model: "commodity", Nodes: 1}, http.StatusCreated, &cr)
	// Three bookings on the one node, two under ID 2. Summed in the two
	// orders of the ID-2 pair, their committed seconds give different
	// quotes for 15 of the 20 probes below.
	bookings := []struct {
		id              int
		share, deadline float64
	}{{1, 0.29, 377.9}, {2, 0.2, 348.2}, {2, 0.22, 188.7}}
	for _, b := range bookings {
		req := SubmitJobRequest{ID: b.id, Runtime: 1e6, Estimate: b.share * b.deadline, Deadline: b.deadline, Budget: 1e9}
		var sr SubmitJobResponse
		mustDo(t, hA, http.MethodPost, "/v1/sessions/"+cr.ID+"/jobs", req, http.StatusOK, &sr)
		if sr.Admission != "accepted" {
			t.Fatalf("booking %+v: admission %q, want accepted", b, sr.Admission)
		}
	}
	// Quotes against those bookings, refused on budget so the node's
	// bookings stay as they are.
	for k := 0; k < 20; k++ {
		req := SubmitJobRequest{ID: 3 + k, Runtime: 1 + 0.25*float64(k), Deadline: 382.9 + 7.3*float64(k), Budget: 1e-9}
		mustDo(t, hA, http.MethodPost, "/v1/sessions/"+cr.ID+"/jobs", req, http.StatusOK, nil)
	}
	rel := do(t, hA, http.MethodPost, "/worker/v1/sessions/"+cr.ID+"/release", nil)
	if rel.Code != http.StatusOK {
		t.Fatalf("release: status %d: %s", rel.Code, rel.Body)
	}
	srvB := New(Config{})
	if _, err := srvB.ImportSession(rel.Body.Bytes()); err != nil {
		t.Fatalf("import of a duplicate-ID session: %v", err)
	}
	jB := do(t, srvB.Handler(), http.MethodGet, "/v1/sessions/"+cr.ID+"/journal", nil)
	if !bytes.Equal(jB.Body.Bytes(), rel.Body.Bytes()) {
		t.Errorf("imported journal differs from the released one:\ngot:\n%s\nwant:\n%s", jB.Body, rel.Body)
	}
}

// A draining worker refuses new sessions and imports but keeps serving
// live ones.
func TestWorkerDrain(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()
	var cr CreateSessionResponse
	mustDo(t, h, http.MethodPost, "/v1/sessions", CreateSessionRequest{Policy: "Libra", Model: "commodity"}, http.StatusCreated, &cr)
	var hr HealthResponse
	mustDo(t, h, http.MethodPost, "/worker/v1/drain", nil, http.StatusOK, &hr)
	if hr.Status != "draining" || !hr.Draining || hr.Sessions != 1 {
		t.Fatalf("drain response: %+v", hr)
	}
	if !srv.draining.Load() {
		t.Error("Draining() false after drain")
	}
	if w := do(t, h, http.MethodPost, "/v1/sessions", CreateSessionRequest{Policy: "Libra", Model: "commodity"}); w.Code != http.StatusServiceUnavailable {
		t.Errorf("create on draining worker: status %d, want 503", w.Code)
	}
	if w := doRaw(t, h, http.MethodPost, "/worker/v1/sessions/import", []byte("{}")); w.Code != http.StatusServiceUnavailable {
		t.Errorf("import on draining worker: status %d, want 503", w.Code)
	}
	// Live sessions still serve and can be released off the worker.
	mustDo(t, h, http.MethodPost, "/v1/sessions/"+cr.ID+"/jobs", SubmitJobRequest{Runtime: 10, Deadline: 50, Budget: 100}, http.StatusOK, nil)
	if w := do(t, h, http.MethodPost, "/worker/v1/sessions/"+cr.ID+"/release", nil); w.Code != http.StatusOK {
		t.Errorf("release on draining worker: status %d, want 200", w.Code)
	}
	var health HealthResponse
	mustDo(t, h, http.MethodGet, "/healthz", nil, http.StatusOK, &health)
	if !health.Draining || health.Sessions != 0 {
		t.Errorf("healthz after drain+release: %+v", health)
	}
}

// Create with a control-plane-assigned ID pins the ID; a duplicate is a
// conflict.
func TestCreateWithAssignedID(t *testing.T) {
	h := New(Config{}).Handler()
	req := CreateSessionRequest{ID: "cp-42", Policy: "Libra", Model: "commodity"}
	var cr CreateSessionResponse
	mustDo(t, h, http.MethodPost, "/v1/sessions", req, http.StatusCreated, &cr)
	if cr.ID != "cp-42" {
		t.Fatalf("assigned ID not honored: %q", cr.ID)
	}
	if w := do(t, h, http.MethodPost, "/v1/sessions", req); w.Code != http.StatusConflict {
		t.Errorf("duplicate assigned ID: status %d, want 409", w.Code)
	}
	// The journal header carries the assigned ID from its first byte.
	jw := do(t, h, http.MethodGet, "/v1/sessions/cp-42/journal", nil)
	if !strings.Contains(jw.Body.String(), `"id":"cp-42"`) {
		t.Errorf("journal header missing assigned ID: %s", jw.Body)
	}
}

// Malformed imports are refused with 400s naming the problem.
func TestImportValidation(t *testing.T) {
	h := New(Config{}).Handler()
	bad := [][]byte{
		[]byte(""),
		[]byte("not json\n"),
		[]byte(`{"kind":"session","policy":"Libra","model":"commodity"}` + "\n"), // no ID
		[]byte(`{"kind":"session","id":"x","policy":"NoSuch","model":"commodity"}` + "\n"),
	}
	for _, b := range bad {
		if w := doRaw(t, h, http.MethodPost, "/worker/v1/sessions/import", b); w.Code != http.StatusBadRequest {
			t.Errorf("import %q: status %d, want 400", b, w.Code)
		}
	}
}

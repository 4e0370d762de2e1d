package control

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/streamrisk"
)

// The plane's fleet-wide risk surface: shadow journals feed the plane's
// own engine, so /v1/risk aggregates across workers and matches the
// offline recomputation of each session's journal — and survives a
// crash-recovery migration, because the shadow (and the engine observing
// it) never moves.
func TestFleetRiskAggregatesAcrossWorkers(t *testing.T) {
	p, _ := newFleet(t, 3)
	h := p.Handler()

	creates := []serve.CreateSessionRequest{
		{Policy: "Libra", Model: "commodity"},
		{Policy: "Libra", Model: "commodity"},
		{Policy: "FCFS-BF", Model: "bid"},
	}
	var ids []string
	var journals [][]byte
	totalEvents := int64(0)
	for i, create := range creates {
		id := createSession(t, p, create)
		ids = append(ids, id)
		jobs := testTrace(t, 12+3*i, int64(20+i))
		for _, j := range jobs {
			mustDo(t, h, http.MethodPost, "/v1/sessions/"+id+"/jobs", submitReq(j), http.StatusOK, nil)
		}
		totalEvents += int64(len(jobs))
		_, journal := finishSession(t, h, id)
		journals = append(journals, journal)
	}

	w := do(t, h, http.MethodGet, "/v1/risk", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET /v1/risk: %d: %s", w.Code, w.Body)
	}
	var snap streamrisk.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Global.Events != totalEvents || snap.Global.Finals != int64(len(creates)) {
		t.Fatalf("fleet global: %+v, want %d events / %d finals", snap.Global, totalEvents, len(creates))
	}
	if len(snap.Sessions) != len(creates) || len(snap.Policies) != 2 || len(snap.Clusters) != 2 {
		t.Fatalf("fleet scopes: %d sessions, %d policies, %d clusters", len(snap.Sessions), len(snap.Policies), len(snap.Clusters))
	}

	// Each session's fleet scope matches the offline recomputation of the
	// journal the worker actually wrote.
	for i, id := range ids {
		rec, err := obs.ParseSessionJournal(journals[i])
		if err != nil {
			t.Fatal(err)
		}
		offline, err := streamrisk.OfflineScores(rec, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got *streamrisk.SessionScopeScores
		for j := range snap.Sessions {
			if snap.Sessions[j].ID == id {
				got = &snap.Sessions[j]
			}
		}
		if got == nil {
			t.Fatalf("session %s missing from fleet risk snapshot", id)
		}
		gb, _ := json.Marshal(got.Scores)
		wb, _ := json.Marshal(offline)
		if !bytes.Equal(gb, wb) {
			t.Errorf("session %s fleet scores diverged from offline:\nfleet:   %s\noffline: %s", id, gb, wb)
		}
	}

	// Deleting a session forgets its fleet scope; aggregate history stays.
	mustDo(t, h, http.MethodDelete, "/v1/sessions/"+ids[0], nil, http.StatusOK, nil)
	w = do(t, h, http.MethodGet, "/v1/risk", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Sessions) != len(creates)-1 {
		t.Fatalf("sessions after delete: %d", len(snap.Sessions))
	}
	if snap.Global.Events != totalEvents {
		t.Fatalf("fleet history lost on delete: %+v", snap.Global)
	}
}

// A DELETE of a session not yet finalized finalizes it on the worker, and
// the final line it answers with reaches the plane's shadow before the
// route is dropped: the plane's fleet view of a one-worker fleet then reads
// exactly what the worker's own risk view reads, final event included.
func TestFleetRiskCountsFinalOfDelete(t *testing.T) {
	p, workers := newFleet(t, 1)
	h := p.Handler()

	id := createSession(t, p, serve.CreateSessionRequest{Policy: "Libra", Model: "commodity"})
	for _, j := range testTrace(t, 5, 41) {
		mustDo(t, h, http.MethodPost, "/v1/sessions/"+id+"/jobs", submitReq(j), http.StatusOK, nil)
	}
	mustDo(t, h, http.MethodDelete, "/v1/sessions/"+id, nil, http.StatusOK, nil)

	var fleet streamrisk.Snapshot
	mustDo(t, h, http.MethodGet, "/v1/risk", nil, http.StatusOK, &fleet)
	resp, err := http.Get(workers[0].URL + "/v1/risk")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var worker streamrisk.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&worker); err != nil {
		t.Fatal(err)
	}
	if worker.Global.Finals != 1 {
		t.Fatalf("worker global after delete: %+v, want 1 final", worker.Global)
	}
	fb, _ := json.Marshal(fleet.Global)
	wb, _ := json.Marshal(worker.Global)
	if !bytes.Equal(fb, wb) {
		t.Errorf("fleet global diverged from the worker's after delete:\nfleet:  %s\nworker: %s", fb, wb)
	}
	if len(fleet.Sessions) != 0 {
		t.Errorf("deleted session still has a fleet scope: %+v", fleet.Sessions)
	}
}

// A worker crash mid-session does not disturb the fleet risk view: the
// shadow journal keeps observing on the plane, the session recovers onto a
// surviving worker, and the finished session's fleet scores still match
// the offline recomputation.
func TestFleetRiskSurvivesCrashRecovery(t *testing.T) {
	p, workers := newFleet(t, 2)
	h := p.Handler()

	id := createSession(t, p, serve.CreateSessionRequest{Policy: "Libra+$", Model: "commodity"})
	jobs := testTrace(t, 20, 31)
	for _, j := range jobs[:9] {
		mustDo(t, h, http.MethodPost, "/v1/sessions/"+id+"/jobs", submitReq(j), http.StatusOK, nil)
	}

	// Kill the owner; the next submit triggers shadow-replay recovery.
	owner := ownerOf(t, p, id)
	for i, ts := range workers {
		if ts.URL == workerURLByName(t, p, owner) {
			workers[i].Close()
		}
	}
	for _, j := range jobs[9:] {
		mustDo(t, h, http.MethodPost, "/v1/sessions/"+id+"/jobs", submitReq(j), http.StatusOK, nil)
	}
	_, journal := finishSession(t, h, id)

	rec, err := obs.ParseSessionJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := streamrisk.OfflineScores(rec, 0)
	if err != nil {
		t.Fatal(err)
	}
	snap := p.risk.Snapshot()
	for _, s := range snap.Sessions {
		if s.ID != id {
			continue
		}
		gb, _ := json.Marshal(s.Scores)
		wb, _ := json.Marshal(offline)
		if !bytes.Equal(gb, wb) {
			t.Errorf("recovered session fleet scores diverged from offline:\nfleet:   %s\noffline: %s", gb, wb)
		}
		return
	}
	t.Fatalf("session %s missing from fleet risk snapshot after recovery", id)
}

// workerURLByName reads a registered worker's URL (white-box).
func workerURLByName(t *testing.T, p *Plane, name string) string {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	wk := p.workers[name]
	if wk == nil {
		t.Fatalf("no worker %s", name)
	}
	return wk.url
}

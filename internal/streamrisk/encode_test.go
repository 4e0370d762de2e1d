package streamrisk_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/economy"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/risk"
	"repro/internal/scheduler"
	"repro/internal/streamrisk"
	"repro/internal/workload"
)

// wire returns the data line WriteEvent writes for v, a Snapshot or a
// Delta: the encoder's bytes for the value.
func wire(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := streamrisk.WriteEvent(&buf, "x", v); err != nil {
		return nil, err
	}
	data, ok := bytes.CutPrefix(buf.Bytes(), []byte("event: x\ndata: "))
	if !ok || !bytes.HasSuffix(data, []byte("\n\n")) {
		return nil, fmt.Errorf("malformed frame %q", buf.Bytes())
	}
	return data[:len(data)-2], nil
}

// narrowed is the reference for what a ?session= / ?policy= read serves:
// the scope lists cut to the named session and policy, the global scores
// kept.
func narrowed(s streamrisk.Snapshot, session, policy string) streamrisk.Snapshot {
	var sessions []streamrisk.SessionScopeScores
	for _, ss := range s.Sessions {
		if (session == "" || ss.ID == session) && (policy == "" || ss.Policy == policy) {
			sessions = append(sessions, ss)
		}
	}
	s.Sessions = sessions
	if policy != "" {
		var policies []streamrisk.ScopeScores
		for _, p := range s.Policies {
			if p.Name == policy {
				policies = append(policies, p)
			}
		}
		s.Policies = policies
	}
	return s
}

// requireMarshalEqual asserts the wire encoder's bytes equal json.Marshal's
// for the same value.
func requireMarshalEqual(t *testing.T, label string, got []byte, gotErr error, v any) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("%s: json.Marshal: %v", label, err)
	}
	if gotErr != nil {
		t.Fatalf("%s: encoder failed where json.Marshal did not: %v", label, gotErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoder and json.Marshal disagree at byte %d:\nencoder: %s\nMarshal: %s", label, firstDiff(got, want), got, want)
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// requireSnapshotReads checks GET /v1/risk under the five filter shapes
// (none, session, policy, both, an unknown session): each body must be
// json.Marshal of the filtered snapshot plus the newline that ends it.
func requireSnapshotReads(t *testing.T, label string, e *streamrisk.Engine, session, policy string) {
	t.Helper()
	h := streamrisk.SnapshotHandler(e)
	for _, f := range []struct{ session, policy string }{
		{"", ""}, {session, ""}, {"", policy}, {session, policy}, {"no-such-session", ""},
	} {
		q := url.Values{}
		if f.session != "" {
			q.Set("session", f.session)
		}
		if f.policy != "" {
			q.Set("policy", f.policy)
		}
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("GET", "/v1/risk?"+q.Encode(), nil))
		want, err := json.Marshal(narrowed(e.Snapshot(), f.session, f.policy))
		if err != nil {
			t.Fatalf("%s ?%s: json.Marshal: %v", label, q.Encode(), err)
		}
		want = append(want, '\n')
		if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s ?%s: status %d, body differs from json.Marshal at byte %d:\nbody:    %s\nMarshal: %s",
				label, q.Encode(), rec.Code, firstDiff(rec.Body.Bytes(), want), rec.Body.Bytes(), want)
		}
		if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(len(want)) {
			t.Fatalf("%s ?%s: Content-Length %s for a %d-byte body", label, q.Encode(), got, len(want))
		}
	}
}

// requireDeltas checks every delta published so far: the encoder's bytes
// equal json.Marshal's, and the encoding opens with the sequence, which
// subscribers read from the `{"seq":` prefix without decoding the rest.
func requireDeltas(t *testing.T, label string, sub *streamrisk.Subscription) int {
	t.Helper()
	n := 0
	for {
		select {
		case d := <-sub.C():
			got, err := wire(d)
			requireMarshalEqual(t, fmt.Sprintf("%s delta %d", label, d.Seq), got, err, d)
			if prefix := fmt.Sprintf(`{"seq":%d,`, d.Seq); !bytes.HasPrefix(got, []byte(prefix)) {
				t.Fatalf("%s: delta %d does not open with %s: %.40s", label, d.Seq, prefix, got)
			}
			n++
		default:
			if sub.TakeDropped() {
				t.Fatalf("%s: the subscription dropped deltas; the battery must see them all", label)
			}
			return n
		}
	}
}

// The encoder battery: over the same Table V × {none, low, high} faults ×
// seeds matrix as the live/offline battery, every snapshot the engine can
// serve (after every journal event, under all five filter shapes) and
// every delta it publishes encode to exactly json.Marshal's bytes. One
// engine per seed folds the seed's three sessions in turn, so later reads
// carry several policy, cluster and session scopes and the filters narrow
// real lists.
func TestEncoderMatchesMarshalBattery(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 6
	}
	const jobsPerSession = 40
	cases := tableVCases(t)
	intensities := []string{"none", "low", "high"}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		e := streamrisk.NewEngine(streamrisk.Config{Window: batteryWindow, SubscriberBuffer: 4 * (jobsPerSession + 1)})
		sub, err := e.Subscribe()
		if err != nil {
			t.Fatal(err)
		}
		for fi, intensity := range intensities {
			mc := cases[(int(seed)*len(intensities)+fi)%len(cases)]
			label := fmt.Sprintf("seed=%d/faults=%s/%s-%s", seed, intensity, mc.policy, mc.model)
			jobs := testTrace(t, jobsPerSession, seed)
			cfg := scheduler.RunConfig{Nodes: 128, Model: mc.econ, BasePrice: economy.DefaultBasePrice}
			header := obs.SessionHeader{
				Kind: "session", ID: fmt.Sprintf("battery-%d-%d", seed, fi),
				Policy: mc.policy, Model: mc.model, Nodes: cfg.Nodes, BasePrice: cfg.BasePrice,
			}
			if intensity != "none" {
				horizon := faults.JobsHorizon(jobs)
				f := faults.Intensity(intensity).Config(seed, horizon)
				cfg.Faults = &f
				header.Seed = seed
				header.FaultIntensity = intensity
				header.FaultHorizon = horizon
			}
			rec, err := obs.ParseSessionJournal(driveJournaled(t, nil, header, cfg, mc.policy, workload.CloneAll(jobs)))
			if err != nil {
				t.Fatal(err)
			}
			if rec.Final == nil {
				t.Fatalf("%s: journal missing final line", label)
			}
			for i, d := range rec.Decisions {
				e.JournalDecision(rec.Header, d)
				requireSnapshotReads(t, fmt.Sprintf("%s after decision %d", label, i+1), e, header.ID, header.Policy)
			}
			e.JournalFinal(rec.Header, rec.Final.Report)
			requireSnapshotReads(t, label+" after the final report", e, header.ID, header.Policy)
			if n := requireDeltas(t, label, sub); n != len(rec.Decisions)+1 {
				t.Fatalf("%s: %d deltas published for %d journal events", label, n, len(rec.Decisions)+1)
			}
		}
		e.Unsubscribe(sub)
	}
}

// adversarialScores sets every float field of a Scores to f.
func adversarialScores(f float64) streamrisk.Scores {
	p := risk.Point{Performance: f, Volatility: -f}
	s := streamrisk.Scores{
		Events: math.MaxInt64, Accepted: math.MinInt64, Rejected: -1, Finals: 0,
		QuoteSum: f, BudgetSum: -f, UtilitySum: f, SettledBudgetSum: f,
		SubmittedSum: 1, FulfilledSum: -1, KilledSum: 7,
		AcceptanceRatio: f, BudgetRatio: f, UtilityRatio: -f, DeadlineRatio: f,
		Integrated: p, WindowSize: -3, WindowIntegrated: p,
	}
	for o := range s.Cumulative {
		s.Cumulative[o] = p
		s.Window[o] = p
	}
	return s
}

func adversarialSnapshot(name string, f float64) streamrisk.Snapshot {
	s := adversarialScores(f)
	return streamrisk.Snapshot{
		Seq: math.MaxUint64, Published: 1, Global: s,
		Policies: []streamrisk.ScopeScores{{Name: name, Scores: s}, {Name: "plain", Scores: s}},
		Clusters: []streamrisk.ScopeScores{{Name: name, Scores: s}},
		Sessions: []streamrisk.SessionScopeScores{{ID: name, Policy: name, Cluster: "c", Scores: s}},
	}
}

func adversarialDelta(name string, f float64) streamrisk.Delta {
	s := adversarialScores(f)
	return streamrisk.Delta{
		Seq: math.MaxUint64, Kind: name, Session: name, Policy: "p", Cluster: name,
		SessionScores: s, PolicyScores: s, ClusterScores: s, Global: s,
	}
}

// The encoder's string and float rules at their edges: names json.Marshal
// escapes or rewrites, floats on both sides of the 'e'-form cutoffs and at
// the ends of the float64 range, and values JSON cannot represent, where
// both encoders must fail with the same error.
func TestEncoderAdversarial(t *testing.T) {
	names := []string{
		"", "plain-Name_1.2", "a<b", "a>b", "a&b", `say "hi"`, `back\slash`,
		"tab\there", "nl\nx", "nul\x00x", "\x1f", "del\x7f", "bad\xffutf8", "trunc\xe2\x80",
		"line\u2028sep", "para\u2029sep", "héllo", "日本", "</script>",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1e-7, 1e-6, 1e20, 1e21, 5e-324, math.MaxFloat64, 1.0 / 3,
		-1e-7, 9.999999999999999e-7, 1e-10, 1.5e-300, 123456789e20, 1e100, 100, 2.5, -42,
	}
	for _, name := range names {
		for _, f := range floats {
			label := fmt.Sprintf("name %q float %v", name, f)
			snap := adversarialSnapshot(name, f)
			got, err := wire(snap)
			requireMarshalEqual(t, label+" snapshot", got, err, snap)
			d := adversarialDelta(name, f)
			got, err = wire(d)
			requireMarshalEqual(t, label+" delta", got, err, d)
			if !bytes.HasPrefix(got, []byte(`{"seq":`)) {
				t.Fatalf("%s: delta does not open with its sequence: %.40s", label, got)
			}
		}
	}

	// Random bit patterns cover the float rule between the named edges.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsInf(f, 0) || math.IsNaN(f) {
			continue
		}
		s := streamrisk.Snapshot{Global: streamrisk.Scores{QuoteSum: f, BudgetRatio: f * 1e-300}}
		got, err := wire(s)
		requireMarshalEqual(t, fmt.Sprintf("float bits %#x", math.Float64bits(f)), got, err, s)
	}

	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		snap := adversarialSnapshot("x", 1)
		snap.Sessions[0].Window[2].Volatility = f
		_, err := wire(snap)
		requireSameFailure(t, fmt.Sprintf("snapshot with %v", f), err, snap)
		d := adversarialDelta("x", 1)
		d.Global.BudgetSum = f
		_, err = wire(d)
		requireSameFailure(t, fmt.Sprintf("delta with %v", f), err, d)
	}
}

// requireSameFailure asserts the encoder and json.Marshal both refuse v,
// with the same *json.UnsupportedValueError.
func requireSameFailure(t *testing.T, label string, got error, v any) {
	t.Helper()
	_, want := json.Marshal(v)
	var unsupported *json.UnsupportedValueError
	if !errors.As(got, &unsupported) || want == nil {
		t.Fatalf("%s: encoder error %v, json.Marshal error %v; both must fail on the value", label, got, want)
	}
	if unsupported.Error() != want.Error() {
		t.Errorf("%s: encoder reports %q, json.Marshal %q", label, unsupported, want)
	}
}

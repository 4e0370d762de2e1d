package streamrisk

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/risk"
	"repro/internal/stats"
)

func testHeader(id, policy, model string) obs.SessionHeader {
	return obs.SessionHeader{Kind: "session", ID: id, Policy: policy, Model: model, Nodes: 128, BasePrice: 1}
}

// dec builds a decision line with the fields the samples read.
func dec(job int, admission string, estimate, deadline, quote, budget float64) obs.SessionDecision {
	return obs.SessionDecision{
		Kind: "decision", Job: job, Runtime: estimate, Estimate: estimate,
		Procs: 1, Deadline: deadline, Budget: budget, Admission: admission, Quote: quote,
	}
}

func TestDecisionSamples(t *testing.T) {
	cases := []struct {
		name string
		d    obs.SessionDecision
		want [NumObjectives]float64
	}{
		{"rejected scores zero", dec(1, "rejected", 10, 100, 5, 50), [NumObjectives]float64{0, 0, 0}},
		{"accepted", dec(1, "accepted", 25, 100, 40, 80), [NumObjectives]float64{1, 0.75, 0.5}},
		{"queued counts as admitted", dec(1, "queued", 25, 100, 40, 80), [NumObjectives]float64{1, 0.75, 0.5}},
		{"estimate beyond deadline clamps to 0", dec(1, "accepted", 300, 100, 10, 100), [NumObjectives]float64{1, 0, 0.1}},
		{"quote beyond budget clamps to 1", dec(1, "accepted", 10, 100, 500, 100), [NumObjectives]float64{1, 0.9, 1}},
		{"zero deadline guards", dec(1, "accepted", 10, 0, 10, 100), [NumObjectives]float64{1, 0, 0.1}},
		{"zero budget guards", dec(1, "accepted", 10, 100, 10, 0), [NumObjectives]float64{1, 0.9, 0}},
		{"negative budget guards", dec(1, "accepted", 10, 100, 10, -5), [NumObjectives]float64{1, 0.9, 0}},
		{"NaN quote guards", dec(1, "accepted", 10, 100, math.NaN(), 100), [NumObjectives]float64{1, 0.9, 0}},
		{"infinite deadline guards", dec(1, "accepted", 10, math.Inf(1), 10, 100), [NumObjectives]float64{1, 0, 0.1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := DecisionSamples(tc.d)
			for o := 0; o < NumObjectives; o++ {
				if math.Abs(got[o]-tc.want[o]) > 1e-12 {
					t.Errorf("%v: got %v, want %v", Objective(o), got[o], tc.want[o])
				}
			}
		})
	}
}

func TestObjectiveString(t *testing.T) {
	want := map[Objective]string{Acceptance: "acceptance", DeadlineMargin: "deadline", BudgetMargin: "budget", Objective(9): "objective(?)"}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("Objective(%d).String() = %q, want %q", int(o), o.String(), s)
		}
	}
}

// The ring window must agree with a naive last-W slice walk, including
// across wraparound.
func TestWindowMatchesNaiveTail(t *testing.T) {
	const size = 8
	w := newWindow(size)
	var all [][NumObjectives]float64
	for i := 0; i < 30; i++ {
		s := [NumObjectives]float64{float64(i%5) / 5, float64(i%3) / 3, float64(i%7) / 7}
		w.add(s)
		all = append(all, s)

		var got [NumObjectives]risk.Point
		w.points(&got)
		lo := len(all) - size
		if lo < 0 {
			lo = 0
		}
		for o := 0; o < NumObjectives; o++ {
			var xs []float64
			for _, smp := range all[lo:] {
				xs = append(xs, smp[o])
			}
			wantPerf := stats.Mean(xs)
			wantVol := stats.StdDev(xs)
			if math.Abs(got[o].Performance-wantPerf) > 1e-12 || math.Abs(got[o].Volatility-wantVol) > 1e-9 {
				t.Fatalf("after %d adds, objective %v: got %+v, want {%v %v}", i+1, Objective(o), got[o], wantPerf, wantVol)
			}
		}
	}
}

func TestEngineSnapshotScopes(t *testing.T) {
	e := NewEngine(Config{Window: 4})
	hA := testHeader("s-a", "Libra", "commodity")
	hB := testHeader("s-b", "FCFS-BF", "bid")
	e.JournalDecision(hA, dec(1, "accepted", 10, 100, 20, 100))
	e.JournalDecision(hA, dec(2, "rejected", 10, 100, 0, 100))
	e.JournalDecision(hB, dec(1, "accepted", 50, 100, 90, 90))
	e.JournalFinal(hA, metrics.Report{Submitted: 2, Accepted: 1, SLAFulfilled: 1, TotalUtility: 20, TotalBudget: 100})

	snap := e.Snapshot()
	if snap.Seq != 4 {
		t.Fatalf("Seq = %d, want 4", snap.Seq)
	}
	if g := snap.Global; g.Events != 3 || g.Accepted != 2 || g.Rejected != 1 || g.Finals != 1 {
		t.Fatalf("global counts: %+v", g)
	}
	if len(snap.Policies) != 2 || snap.Policies[0].Name != "FCFS-BF" || snap.Policies[1].Name != "Libra" {
		t.Fatalf("policies not sorted: %+v", snap.Policies)
	}
	if len(snap.Clusters) != 2 || snap.Clusters[0].Name != "bid" || snap.Clusters[1].Name != "commodity" {
		t.Fatalf("clusters: %+v", snap.Clusters)
	}
	if len(snap.Sessions) != 2 || snap.Sessions[0].ID != "s-a" || snap.Sessions[1].ID != "s-b" {
		t.Fatalf("sessions: %+v", snap.Sessions)
	}
	a := snap.Sessions[0]
	if a.Policy != "Libra" || a.Cluster != "commodity" {
		t.Fatalf("session scope labels: %+v", a)
	}
	if a.Events != 2 || a.Accepted != 1 || a.AcceptanceRatio != 0.5 {
		t.Fatalf("session a scores: %+v", a.Scores)
	}
	if a.UtilityRatio != 0.2 || a.DeadlineRatio != 0.5 {
		t.Fatalf("session a settlement ratios: utility=%v deadline=%v", a.UtilityRatio, a.DeadlineRatio)
	}
	if a.WindowSize != 2 {
		t.Fatalf("session a window size = %d, want 2", a.WindowSize)
	}

	// Forgetting a session drops its scope but not its history elsewhere.
	e.ForgetSession("s-a")
	snap = e.Snapshot()
	if len(snap.Sessions) != 1 || snap.Sessions[0].ID != "s-b" {
		t.Fatalf("sessions after forget: %+v", snap.Sessions)
	}
	if snap.Global.Events != 3 {
		t.Fatalf("global history lost on forget: %+v", snap.Global)
	}
}

// The subscription contract: anchor snapshot, strictly increasing delta
// seqs above the anchor, and delta scores that match a fresh snapshot.
func TestSubscribeDeltaContract(t *testing.T) {
	e := NewEngine(Config{Window: 4, SubscriberBuffer: 16})
	h := testHeader("s-1", "Libra", "commodity")
	e.JournalDecision(h, dec(1, "accepted", 10, 100, 20, 100))

	sub, err := e.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Unsubscribe(sub)
	anchor := sub.Snapshot()
	if anchor.Seq != 1 || anchor.Global.Events != 1 {
		t.Fatalf("anchor: %+v", anchor)
	}

	e.JournalDecision(h, dec(2, "rejected", 10, 100, 0, 100))
	e.JournalFinal(h, metrics.Report{Submitted: 2})

	d1, d2 := <-sub.ch, <-sub.ch
	if d1.Seq != 2 || d1.Kind != DeltaDecision || d2.Seq != 3 || d2.Kind != DeltaFinal {
		t.Fatalf("deltas: %+v / %+v", d1, d2)
	}
	if d1.Session != "s-1" || d1.Policy != "Libra" || d1.Cluster != "commodity" {
		t.Fatalf("delta identity: %+v", d1)
	}
	// The final delta's global scores equal a fresh snapshot's.
	got, _ := json.Marshal(d2.Global)
	want, _ := json.Marshal(e.Snapshot().Global)
	if string(got) != string(want) {
		t.Fatalf("delta global diverged from snapshot:\n%s\n%s", got, want)
	}
	if sub.TakeDropped() {
		t.Fatal("dropped flag set with room in the buffer")
	}
}

func TestSubscriberLimitAndUnsubscribe(t *testing.T) {
	e := NewEngine(Config{MaxSubscribers: 2})
	a, err := e.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Subscribe(); err == nil {
		t.Fatal("third subscription exceeded MaxSubscribers without error")
	}
	e.Unsubscribe(a)
	c, err := e.Subscribe()
	if err != nil {
		t.Fatalf("subscribe after unsubscribe: %v", err)
	}
	e.Unsubscribe(b)
	e.Unsubscribe(c)
	e.Unsubscribe(c) // double-unsubscribe is a no-op
}

// A stalled subscriber loses deltas but never blocks ingest, and the loss
// is observable: its dropped flag plus the engine's published/dropped
// counters.
func TestStalledSubscriberDropsAndFlags(t *testing.T) {
	e := NewEngine(Config{SubscriberBuffer: 2})
	sub, err := e.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Unsubscribe(sub)
	h := testHeader("s-1", "Libra", "commodity")
	for i := 1; i <= 10; i++ {
		e.JournalDecision(h, dec(i, "accepted", 10, 100, 20, 100))
	}
	snap := e.Snapshot()
	if snap.Seq != 10 || snap.Global.Events != 10 {
		t.Fatalf("ingest blocked by stalled subscriber: %+v", snap)
	}
	if snap.Published != 10 || snap.Dropped != 8 {
		t.Fatalf("published/dropped = %d/%d, want 10/8", snap.Published, snap.Dropped)
	}
	if !sub.TakeDropped() {
		t.Fatal("dropped flag not set")
	}
	if sub.TakeDropped() {
		t.Fatal("TakeDropped did not clear the flag")
	}
}

// IngestRecord replays a parsed journal to the same state as live ingest.
func TestIngestRecordEquivalence(t *testing.T) {
	h := testHeader("s-1", "Libra", "commodity")
	var decs []obs.SessionDecision
	for i := 1; i <= 9; i++ {
		adm := "accepted"
		if i%3 == 0 {
			adm = "rejected"
		}
		decs = append(decs, dec(i, adm, float64(5*i), 100, float64(10*i), 200))
	}
	rep := metrics.Report{Submitted: 9, Accepted: 6, SLAFulfilled: 5, TotalUtility: 77, TotalBudget: 200}

	live := NewEngine(Config{Window: 4})
	for _, d := range decs {
		live.JournalDecision(h, d)
	}
	live.JournalFinal(h, rep)

	replayed := NewEngine(Config{Window: 4})
	replayed.IngestRecord(&obs.SessionRecord{
		Header: h, Decisions: decs, Final: &obs.SessionFinal{Kind: "final", Report: rep},
	})

	got, _ := json.Marshal(replayed.Snapshot())
	want, _ := json.Marshal(live.Snapshot())
	if string(got) != string(want) {
		t.Fatalf("replayed engine diverged:\n%s\n%s", got, want)
	}
}

// Concurrent ingest across sessions with a stalled subscriber: run with
// -race; totals must come out exact.
func TestConcurrentIngest(t *testing.T) {
	e := NewEngine(Config{Window: 8, SubscriberBuffer: 1})
	stalled, err := e.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Unsubscribe(stalled)

	const workers, events = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := testHeader(fmt.Sprintf("s-%d", w), "Libra", "commodity")
			for i := 1; i <= events; i++ {
				e.JournalDecision(h, dec(i, "accepted", 10, 100, 20, 100))
			}
			e.JournalFinal(h, metrics.Report{Submitted: events})
		}(w)
	}
	wg.Wait()

	snap := e.Snapshot()
	if want := uint64(workers * (events + 1)); snap.Seq != want {
		t.Fatalf("Seq = %d, want %d", snap.Seq, want)
	}
	if snap.Global.Events != workers*events || snap.Global.Finals != workers {
		t.Fatalf("global: %+v", snap.Global)
	}
	if len(snap.Sessions) != workers {
		t.Fatalf("sessions: %d, want %d", len(snap.Sessions), workers)
	}
	if snap.Global.SubmittedSum != workers*events {
		t.Fatalf("submitted sum: %d", snap.Global.SubmittedSum)
	}
}

// Deltas reach a subscriber in seq order even when sessions ingest
// concurrently: seq is assigned under e.mu, and the fan-out lock is taken
// before e.mu is released, so no later delta can overtake an earlier one.
// The buffer holds every delta, so nothing is dropped.
func TestDeltaSeqStrictlyIncreases(t *testing.T) {
	const workers, events = 8, 4000
	e := NewEngine(Config{Window: 8, SubscriberBuffer: workers * events})
	sub, err := e.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Unsubscribe(sub)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := testHeader(fmt.Sprintf("s-%d", w), "Libra", "commodity")
			for i := 1; i <= events; i++ {
				e.JournalDecision(h, dec(i, "accepted", 10, 100, 20, 100))
			}
		}(w)
	}
	wg.Wait()

	if sub.TakeDropped() {
		t.Fatal("a delta was dropped on a buffer that holds them all")
	}
	prev, inversions := uint64(0), 0
	for i := 0; i < workers*events; i++ {
		d := <-sub.C()
		if d.Seq <= prev {
			inversions++
		}
		prev = d.Seq
	}
	if inversions > 0 {
		t.Fatalf("%d deltas arrived with a seq not above the one before", inversions)
	}
}

// The steady-state ingest path must not allocate: the bench gate measures
// it, this pins it in the test suite.
func TestIngestSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine(Config{Window: 16, SubscriberBuffer: 1})
	// One stalled subscriber exercises the drop path too.
	sub, err := e.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Unsubscribe(sub)
	h := testHeader("s-1", "Libra", "commodity")
	d := dec(1, "accepted", 10, 100, 20, 100)
	// Warm up: session/policy/cluster trackers exist after the first event.
	e.JournalDecision(h, d)

	if allocs := testing.AllocsPerRun(200, func() {
		e.JournalDecision(h, d)
	}); allocs != 0 {
		t.Fatalf("steady-state decision ingest allocates %v per event, want 0", allocs)
	}
	rep := metrics.Report{Submitted: 1}
	e.JournalFinal(h, rep)
	if allocs := testing.AllocsPerRun(200, func() {
		e.JournalFinal(h, rep)
	}); allocs != 0 {
		t.Fatalf("steady-state final ingest allocates %v per event, want 0", allocs)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Window != DefaultWindow || c.MaxSubscribers != DefaultMaxSubscribers || c.SubscriberBuffer != DefaultSubscriberBuffer {
		t.Fatalf("defaults: %+v", c)
	}
	c = Config{Window: 3, MaxSubscribers: 1, SubscriberBuffer: 2}.withDefaults()
	if c.Window != 3 || c.MaxSubscribers != 1 || c.SubscriberBuffer != 2 {
		t.Fatalf("explicit config overridden: %+v", c)
	}
}

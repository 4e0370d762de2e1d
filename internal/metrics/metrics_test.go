package metrics

import (
	"math"
	"strings"
	"testing"

	"repro/internal/workload"
)

func mkJob(id int, submit, runtime, deadline, budget float64) *workload.Job {
	return &workload.Job{
		ID: id, Submit: submit, Runtime: runtime, Estimate: runtime, Procs: 1,
		Deadline: deadline, Budget: budget, PenaltyRate: 1,
	}
}

func TestReportAllObjectives(t *testing.T) {
	c := NewCollector()
	// Job 1: accepted, starts after 10 s wait, meets deadline, earns 80.
	j1 := mkJob(1, 0, 100, 200, 100)
	c.Submitted(j1)
	c.Accepted(j1)
	c.Started(j1, 10)
	c.Finished(j1, 110, 80)
	// Job 2: accepted, misses deadline, earns 50.
	j2 := mkJob(2, 0, 100, 50, 100)
	c.Submitted(j2)
	c.Accepted(j2)
	c.Started(j2, 0)
	c.Finished(j2, 100, 50)
	// Job 3: rejected, budget 100.
	j3 := mkJob(3, 0, 100, 200, 100)
	c.Submitted(j3)
	c.Rejected(j3)
	// Job 4: accepted, zero wait, meets deadline, earns 70.
	j4 := mkJob(4, 50, 100, 200, 100)
	c.Submitted(j4)
	c.Accepted(j4)
	c.Started(j4, 50)
	c.Finished(j4, 150, 70)

	r := c.Report()
	if r.Submitted != 4 || r.Accepted != 3 || r.SLAFulfilled != 2 {
		t.Fatalf("counts = %d/%d/%d, want 4/3/2", r.Submitted, r.Accepted, r.SLAFulfilled)
	}
	if want := (10.0 + 0.0) / 2; r.Wait != want {
		t.Errorf("wait = %v, want %v", r.Wait, want)
	}
	if want := 2.0 / 4 * 100; r.SLA != want {
		t.Errorf("SLA = %v, want %v", r.SLA, want)
	}
	if want := 2.0 / 3 * 100; math.Abs(r.Reliability-want) > 1e-12 {
		t.Errorf("reliability = %v, want %v", r.Reliability, want)
	}
	if want := (80.0 + 50 + 70) / 400 * 100; math.Abs(r.Profitability-want) > 1e-12 {
		t.Errorf("profitability = %v, want %v", r.Profitability, want)
	}
}

func TestSLAFulfilledBoundary(t *testing.T) {
	c := NewCollector()
	j := mkJob(1, 100, 50, 80, 10)
	c.Submitted(j)
	c.Accepted(j)
	c.Started(j, 100)
	c.Finished(j, 180, 10) // exactly at absolute deadline 180
	if !c.Outcome(j).SLAFulfilled() {
		t.Error("finishing exactly at the deadline must fulfil the SLA")
	}
}

func TestRejectedJobNeverSLAFulfilled(t *testing.T) {
	c := NewCollector()
	j := mkJob(1, 0, 10, 100, 10)
	c.Submitted(j)
	c.Rejected(j)
	if c.Outcome(j).SLAFulfilled() {
		t.Error("rejected job reported as SLA-fulfilled")
	}
}

func TestNegativeUtilityProfitability(t *testing.T) {
	c := NewCollector()
	j := mkJob(1, 0, 10, 5, 100)
	c.Submitted(j)
	c.Accepted(j)
	c.Started(j, 0)
	c.Finished(j, 1000, -500) // heavy bid-based penalty
	r := c.Report()
	if r.Profitability >= 0 {
		t.Errorf("profitability = %v, want negative", r.Profitability)
	}
}

func TestEmptyReport(t *testing.T) {
	r := NewCollector().Report()
	if r.Wait != 0 || r.SLA != 0 || r.Reliability != 0 || r.Profitability != 0 {
		t.Errorf("empty report not all zero: %+v", r)
	}
}

func TestSlowdownAndResponse(t *testing.T) {
	c := NewCollector()
	j := mkJob(1, 100, 50, 1000, 10)
	c.Submitted(j)
	c.Accepted(j)
	c.Started(j, 150)
	c.Finished(j, 250, 10)
	o := c.Outcome(j)
	if o.ResponseTime() != 150 {
		t.Errorf("response = %v, want 150", o.ResponseTime())
	}
	if o.Slowdown() != 3 {
		t.Errorf("slowdown = %v, want 3", o.Slowdown())
	}
	r := c.Report()
	if r.MeanSlowdown != 3 || r.MeanResponseTime != 150 {
		t.Errorf("report slowdown/response = %v/%v", r.MeanSlowdown, r.MeanResponseTime)
	}
}

func TestLifecyclePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	j := mkJob(1, 0, 10, 100, 10)
	expectPanic("double submit", func() {
		c := NewCollector()
		c.Submitted(j)
		c.Submitted(j)
	})
	expectPanic("accept unsubmitted", func() { NewCollector().Accepted(j) })
	expectPanic("reject then accept", func() {
		c := NewCollector()
		c.Submitted(j)
		c.Rejected(j)
		c.Accepted(j)
	})
	expectPanic("accept then reject", func() {
		c := NewCollector()
		c.Submitted(j)
		c.Accepted(j)
		c.Rejected(j)
	})
	expectPanic("finish without start", func() {
		c := NewCollector()
		c.Submitted(j)
		c.Accepted(j)
		c.Finished(j, 10, 0)
	})
}

func TestOutcomesOrder(t *testing.T) {
	c := NewCollector()
	jobs := []*workload.Job{mkJob(3, 0, 1, 1, 1), mkJob(1, 0, 1, 1, 1), mkJob(2, 0, 1, 1, 1)}
	for _, j := range jobs {
		c.Submitted(j)
	}
	got := c.Outcomes()
	for i, o := range got {
		if o.Job != jobs[i] {
			t.Fatalf("Outcomes()[%d] out of submission order", i)
		}
	}
}

func TestWriteOutcomesCSV(t *testing.T) {
	c := NewCollector()
	j1 := mkJob(1, 0, 100, 200, 100)
	j1.HighUrgency = true
	c.Submitted(j1)
	c.Accepted(j1)
	c.Started(j1, 10)
	c.Finished(j1, 110, 80)
	j2 := mkJob(2, 5, 100, 200, 100)
	c.Submitted(j2)
	c.Rejected(j2)

	var buf strings.Builder
	if err := WriteOutcomesCSV(&buf, c.Outcomes()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2", len(lines))
	}
	if !strings.HasPrefix(lines[0], "job,procs,submit") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "high,finished") || !strings.Contains(lines[1], ",true") {
		t.Errorf("finished row wrong: %q", lines[1])
	}
	if !strings.Contains(lines[2], "low,rejected") {
		t.Errorf("rejected row wrong: %q", lines[2])
	}
	// Rejected rows leave execution cells empty: trailing ",,,,".
	if !strings.HasSuffix(lines[2], ",,,,") {
		t.Errorf("rejected row has execution data: %q", lines[2])
	}
}

func TestAverageReports(t *testing.T) {
	a := Report{Submitted: 100, Accepted: 80, SLAFulfilled: 70, Wait: 10, SLA: 70, Reliability: 87.5, Profitability: 20, TotalUtility: 1000, TotalBudget: 5000, Utilization: 0.5}
	b := Report{Submitted: 100, Accepted: 60, SLAFulfilled: 50, Wait: 30, SLA: 50, Reliability: 83.3, Profitability: 10, TotalUtility: 500, TotalBudget: 5000, Utilization: 0.7}
	avg := AverageReports([]Report{a, b})
	if avg.Submitted != 100 || avg.Accepted != 70 || avg.SLAFulfilled != 60 {
		t.Errorf("count means wrong: %+v", avg)
	}
	if avg.Wait != 20 || avg.SLA != 60 || avg.Profitability != 15 {
		t.Errorf("float means wrong: %+v", avg)
	}
	if math.Abs(avg.Utilization-0.6) > 1e-12 {
		t.Errorf("utilization mean = %v", avg.Utilization)
	}
	one := AverageReports([]Report{a})
	if one != a {
		t.Error("averaging one report changed it")
	}
	defer func() {
		if recover() == nil {
			t.Error("empty average did not panic")
		}
	}()
	AverageReports(nil)
}

func TestAbandonedAndKilledCount(t *testing.T) {
	c := NewCollector()
	// Job 1: accepted, started, killed mid-run by a node failure.
	j1 := mkJob(1, 0, 100, 200, 100)
	c.Submitted(j1)
	c.Accepted(j1)
	c.Started(j1, 10)
	c.Killed(j1, 50, 0)
	// Job 2: accepted, stranded in the queue, abandoned.
	j2 := mkJob(2, 0, 100, 200, 100)
	c.Submitted(j2)
	c.Accepted(j2)
	c.Abandoned(j2, 300)
	// Job 3: accepted and fulfilled, for contrast.
	j3 := mkJob(3, 0, 100, 200, 100)
	c.Submitted(j3)
	c.Accepted(j3)
	c.Started(j3, 0)
	c.Finished(j3, 100, 80)

	o2 := c.Outcome(j2)
	if !o2.Killed || o2.Finished || o2.Started || o2.FinishTime != 300 {
		t.Errorf("abandoned outcome wrong: %+v", o2)
	}
	if o2.SLAFulfilled() {
		t.Error("abandoned job fulfils SLA")
	}
	r := c.Report()
	if r.Killed != 2 {
		t.Errorf("Killed = %d, want 2", r.Killed)
	}
	if r.Accepted != 3 || r.SLAFulfilled != 1 {
		t.Errorf("accepted/fulfilled = %d/%d, want 3/1", r.Accepted, r.SLAFulfilled)
	}
	if math.Abs(r.Reliability-100.0/3) > 1e-9 {
		t.Errorf("Reliability = %v, want 33.3", r.Reliability)
	}

	avg := AverageReports([]Report{{Killed: 1}, {Killed: 2}})
	if avg.Killed != 2 { // 1.5 rounds to 2
		t.Errorf("averaged Killed = %d, want 2", avg.Killed)
	}
}

func TestAbandonedPanics(t *testing.T) {
	c := NewCollector()
	j := mkJob(1, 0, 100, 200, 100)
	c.Submitted(j)
	c.Accepted(j)
	c.Started(j, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("abandon after start did not panic")
			}
		}()
		c.Abandoned(j, 10)
	}()
	j2 := mkJob(2, 0, 100, 200, 100)
	c.Submitted(j2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("abandon before acceptance did not panic")
			}
		}()
		c.Abandoned(j2, 10)
	}()
}

package metrics

import (
	"fmt"

	"repro/internal/workload"
)

// Outcome is the lifecycle record of one submitted job.
type Outcome struct {
	Job        *workload.Job
	Accepted   bool
	Rejected   bool
	Started    bool
	StartTime  float64
	Finished   bool
	FinishTime float64
	// Killed marks a job the provider terminated before completion (the
	// preemptive extension); it is Finished for accounting but can never
	// fulfil its SLA.
	Killed bool
	// Utility is what the provider earned from this job: the commodity
	// charge, or the bid-based utility (possibly negative). Zero for
	// rejected jobs.
	Utility float64
}

// SLAFulfilled reports whether the job was accepted and completed within
// its deadline. A killed job never fulfils its SLA — it did not complete.
func (o *Outcome) SLAFulfilled() bool {
	return o.Accepted && o.Finished && !o.Killed && o.FinishTime <= o.Job.AbsDeadline()
}

// Wait returns the SLA-acceptance wait the paper measures: time from
// submission until execution start.
func (o *Outcome) Wait() float64 { return o.StartTime - o.Job.Submit }

// ResponseTime returns submission-to-completion time (the CaR makespan per
// job); zero if unfinished.
func (o *Outcome) ResponseTime() float64 {
	if !o.Finished {
		return 0
	}
	return o.FinishTime - o.Job.Submit
}

// Slowdown returns the CaR expansion factor: response time over runtime.
func (o *Outcome) Slowdown() float64 {
	if !o.Finished || o.Job.Runtime <= 0 {
		return 0
	}
	return o.ResponseTime() / o.Job.Runtime
}

// Collector accumulates outcomes for one simulation run.
type Collector struct {
	byJob map[*workload.Job]*Outcome
	order []*Outcome
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{byJob: make(map[*workload.Job]*Outcome)}
}

// Submitted registers a job entering the service. It must be called once
// per job, before any other event for it.
func (c *Collector) Submitted(j *workload.Job) {
	if _, dup := c.byJob[j]; dup {
		panic(fmt.Sprintf("metrics: job %d submitted twice", j.ID))
	}
	o := &Outcome{Job: j}
	c.byJob[j] = o
	c.order = append(c.order, o)
}

func (c *Collector) must(j *workload.Job, op string) *Outcome {
	o := c.byJob[j]
	if o == nil {
		panic(fmt.Sprintf("metrics: %s for unsubmitted job %d", op, j.ID))
	}
	return o
}

// Accepted marks the job's SLA as accepted by the admission control.
func (c *Collector) Accepted(j *workload.Job) {
	o := c.must(j, "accept")
	if o.Rejected {
		panic(fmt.Sprintf("metrics: job %d accepted after rejection", j.ID))
	}
	o.Accepted = true
}

// Rejected marks the job as refused.
func (c *Collector) Rejected(j *workload.Job) {
	o := c.must(j, "reject")
	if o.Accepted {
		panic(fmt.Sprintf("metrics: job %d rejected after acceptance", j.ID))
	}
	o.Rejected = true
}

// Started records the job's execution start time.
func (c *Collector) Started(j *workload.Job, at float64) {
	o := c.must(j, "start")
	o.Started = true
	o.StartTime = at
}

// Finished records completion time and the provider's utility for the job.
func (c *Collector) Finished(j *workload.Job, at, utility float64) {
	o := c.must(j, "finish")
	if !o.Started {
		panic(fmt.Sprintf("metrics: job %d finished without starting", j.ID))
	}
	o.Finished = true
	o.FinishTime = at
	o.Utility = utility
}

// Killed records the provider terminating a started job at the given time
// with the given (usually zero) utility.
func (c *Collector) Killed(j *workload.Job, at, utility float64) {
	c.Finished(j, at, utility)
	c.byJob[j].Killed = true
}

// Abandoned records the provider writing off an accepted job that never
// started — stranded in the queue when node failures made its width or
// deadline unservable. It counts against reliability exactly like a killed
// job (accepted, SLA unfulfilled) but has no completion time.
func (c *Collector) Abandoned(j *workload.Job, at float64) {
	o := c.must(j, "abandon")
	if o.Started {
		panic(fmt.Sprintf("metrics: job %d abandoned after starting (use Killed)", j.ID))
	}
	if !o.Accepted {
		panic(fmt.Sprintf("metrics: job %d abandoned without acceptance (use Rejected)", j.ID))
	}
	o.Killed = true
	o.FinishTime = at
}

// Outcome returns the record for j, or nil if never submitted.
func (c *Collector) Outcome(j *workload.Job) *Outcome { return c.byJob[j] }

// Outcomes returns all records in submission order.
func (c *Collector) Outcomes() []*Outcome { return c.order }

// Report is the objective summary of one simulation run.
type Report struct {
	Submitted    int // m
	Accepted     int // n
	SLAFulfilled int // nSLA
	// Killed counts accepted jobs the provider terminated or abandoned —
	// under fault injection, the victims of node failures that were not
	// successfully restarted. Each one drags reliability below 100.
	Killed int
	// Finished counts jobs with a completion time (including killed jobs):
	// the denominator of the slowdown and response-time means, exposed so a
	// federation merge can reweight those means exactly.
	Finished int

	// The four objectives. Wait is in seconds; the rest are percentages.
	Wait          float64
	SLA           float64
	Reliability   float64
	Profitability float64

	// Extension metrics (Computation-at-Risk axes).
	MeanSlowdown     float64
	MeanResponseTime float64

	// TotalUtility and TotalBudget expose the profitability numerator and
	// denominator (utility can be negative under the bid-based model).
	TotalUtility float64
	TotalBudget  float64

	// Utilization is the machine's processor utilization over the run,
	// filled in by the simulation driver when the policy's cluster
	// reports it (0..1).
	Utilization float64
}

// Report computes the objectives over everything collected so far.
func (c *Collector) Report() Report {
	var r Report
	r.Submitted = len(c.order)
	var waitSum float64
	var slowSum, respSum float64
	finished := 0
	for _, o := range c.order {
		r.TotalBudget += o.Job.Budget
		if o.Accepted {
			r.Accepted++
			r.TotalUtility += o.Utility
		}
		if o.SLAFulfilled() {
			r.SLAFulfilled++
			waitSum += o.Wait()
		}
		if o.Killed {
			r.Killed++
		}
		if o.Finished {
			finished++
			slowSum += o.Slowdown()
			respSum += o.ResponseTime()
		}
	}
	r.Finished = finished
	if r.SLAFulfilled > 0 {
		r.Wait = waitSum / float64(r.SLAFulfilled)
	}
	if r.Submitted > 0 {
		r.SLA = float64(r.SLAFulfilled) / float64(r.Submitted) * 100
	}
	if r.Accepted > 0 {
		r.Reliability = float64(r.SLAFulfilled) / float64(r.Accepted) * 100
	}
	if r.TotalBudget > 0 {
		r.Profitability = r.TotalUtility / r.TotalBudget * 100
	}
	if finished > 0 {
		r.MeanSlowdown = slowSum / float64(finished)
		r.MeanResponseTime = respSum / float64(finished)
	}
	return r
}

// AverageReports returns the field-wise mean of several reports — the
// replication support of the experiment suite. Count fields are rounded to
// the nearest integer. Panics on an empty slice.
func AverageReports(reports []Report) Report {
	if len(reports) == 0 {
		panic("metrics: averaging no reports")
	}
	n := float64(len(reports))
	var out Report
	var submitted, accepted, fulfilled, killed, finished float64
	for _, r := range reports {
		submitted += float64(r.Submitted)
		accepted += float64(r.Accepted)
		fulfilled += float64(r.SLAFulfilled)
		killed += float64(r.Killed)
		finished += float64(r.Finished)
		out.Wait += r.Wait
		out.SLA += r.SLA
		out.Reliability += r.Reliability
		out.Profitability += r.Profitability
		out.MeanSlowdown += r.MeanSlowdown
		out.MeanResponseTime += r.MeanResponseTime
		out.TotalUtility += r.TotalUtility
		out.TotalBudget += r.TotalBudget
		out.Utilization += r.Utilization
	}
	out.Submitted = int(submitted/n + 0.5)
	out.Accepted = int(accepted/n + 0.5)
	out.SLAFulfilled = int(fulfilled/n + 0.5)
	out.Killed = int(killed/n + 0.5)
	out.Finished = int(finished/n + 0.5)
	out.Wait /= n
	out.SLA /= n
	out.Reliability /= n
	out.Profitability /= n
	out.MeanSlowdown /= n
	out.MeanResponseTime /= n
	out.TotalUtility /= n
	out.TotalBudget /= n
	out.Utilization /= n
	return out
}

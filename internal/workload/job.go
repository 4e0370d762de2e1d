package workload

import "fmt"

// Job is one parallel job: its trace-derived shape (submit, runtime,
// estimate, width) plus the utility-computing service parameters the QoS
// synthesizer attaches (deadline, budget, penalty rate), which the SDSC
// trace does not carry.
type Job struct {
	// ID is the 1-based job number.
	ID int
	// Submit is the submission time, seconds from the start of the trace.
	Submit float64
	// Runtime is the actual execution time in seconds on dedicated
	// processors.
	Runtime float64
	// Estimate is the user-provided runtime estimate in seconds. Admission
	// controls see Estimate; the simulation completes jobs after Runtime.
	Estimate float64
	// Procs is the number of processors the job requires.
	Procs int

	// Deadline is the time allowed to complete the job, in seconds from
	// Submit. Zero means "not set" (the QoS synthesizer fills it).
	Deadline float64
	// Budget is the most the user will pay for completion, in dollars.
	Budget float64
	// PenaltyRate is the utility lost per second of completion delay past
	// the deadline under the bid-based model, in dollars per second.
	PenaltyRate float64
	// HighUrgency marks the job's class: high urgency means a tight
	// deadline with a high budget and penalty rate.
	HighUrgency bool
}

// Validate reports whether the job's shape fields are usable for
// simulation.
func (j *Job) Validate() error {
	switch {
	case j.ID <= 0:
		return fmt.Errorf("workload: job %d: non-positive ID", j.ID)
	case j.Submit < 0:
		return fmt.Errorf("workload: job %d: negative submit %v", j.ID, j.Submit)
	case j.Runtime <= 0:
		return fmt.Errorf("workload: job %d: non-positive runtime %v", j.ID, j.Runtime)
	case j.Estimate <= 0:
		return fmt.Errorf("workload: job %d: non-positive estimate %v", j.ID, j.Estimate)
	case j.Procs <= 0:
		return fmt.Errorf("workload: job %d: non-positive width %d", j.ID, j.Procs)
	}
	return nil
}

// HasQoS reports whether the QoS fields have been synthesized.
func (j *Job) HasQoS() bool {
	return j.Deadline > 0 && j.Budget > 0
}

// AbsDeadline returns the absolute deadline (submit + relative deadline).
func (j *Job) AbsDeadline() float64 { return j.Submit + j.Deadline }

// Clone returns a copy of the job. Schedulers mutate per-run state kept
// elsewhere; jobs themselves are treated as immutable inputs, and Clone
// protects a shared trace when a run needs to rescale it.
func (j *Job) Clone() *Job {
	c := *j
	return &c
}

// CloneAll deep-copies a slice of jobs.
func CloneAll(jobs []*Job) []*Job {
	out := make([]*Job, len(jobs))
	for i, j := range jobs {
		out[i] = j.Clone()
	}
	return out
}

// ScaleArrivals multiplies every inter-arrival gap by factor, keeping the
// first submission time fixed. This implements the paper's "arrival delay
// factor": 0.1 turns a 600 s gap into a 60 s gap (higher load).
func ScaleArrivals(jobs []*Job, factor float64) {
	if len(jobs) == 0 {
		return
	}
	if factor < 0 {
		panic(fmt.Sprintf("workload: negative arrival delay factor %v", factor))
	}
	prevOrig := jobs[0].Submit
	prevNew := jobs[0].Submit
	for _, j := range jobs[1:] {
		gap := j.Submit - prevOrig
		prevOrig = j.Submit
		prevNew += gap * factor
		j.Submit = prevNew
	}
}

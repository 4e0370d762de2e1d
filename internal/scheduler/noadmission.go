package scheduler

// The no-admission-control baselines the paper dismisses in §5.2: plain
// EASY backfilling with NO admission control — every job is accepted at
// submission and executed eventually, deadlines be damned. The paper notes
// these "policies without job admission control perform much worse,
// especially when deadlines of jobs are short"; the admission-control
// ablation bench quantifies that claim. Under the commodity model a job is
// still charged its quote (capped at its budget, since the provider may
// not charge more); under the bid-based model late jobs accrue the usual
// unbounded penalties. They are backfillPolicy with the admission filter
// off, so the EASY pass exists once.

// NewFCFSNoAC returns First Come First Serve backfilling without admission
// control.
//
//lint:allow deadcode — ablation policy; BenchmarkAblationAdmissionControl in bench_test.go and TestClaimAdmissionControlMatters in integration_test.go run it
func NewFCFSNoAC(ctx *Context) Policy {
	return newBackfill(ctx, "FCFS-BF/noAC", bySubmit, false)
}

// NewEDFNoAC returns Earliest Deadline First backfilling without admission
// control.
//
//lint:allow deadcode — ablation policy; BenchmarkAblationAdmissionControl in bench_test.go runs it
func NewEDFNoAC(ctx *Context) Policy {
	return newBackfill(ctx, "EDF-BF/noAC", byDeadline, false)
}

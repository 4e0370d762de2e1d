// Package faults generates deterministic node failure and repair event
// sequences for the simulated cluster, in the tradition of the
// GridSim/CloudSim resource-failure models.
//
// Every node alternates between up and down periods whose lengths are drawn
// from explicitly seeded exponential or Weibull distributions. Each node
// draws from its own PRNG substream (derived from the configuration seed by
// a SplitMix64 finalizer), so the schedule for node i never depends on how
// many events another node produced — adding a node or lengthening the
// horizon perturbs nothing else. The generated schedule is a plain sorted
// slice of events; the simulation driver feeds it to its sim.Engine one
// event at a time, so failures interleave deterministically with job
// submissions and completions, preserving the repository's bit-for-bit
// reproducibility.
//
// Generate is pure: equal configurations and node counts give
// byte-identical schedules. Runs that draw the same process may therefore
// share one generated schedule, read-only, through a Memo. The experiment
// suite keeps one per group of cells that simulate identical prepared jobs
// — one scenario value's policies at one replication — and drops it once
// the group has run; every other caller passes no memo and generates
// afresh.
//
// # The intensity axis
//
// Experiments select failure behaviour through Intensity, the scenario
// axis the suite runner exposes as -faults none|low|high:
//
//   - None: the paper's original never-failing machine.
//   - Low: a well-run machine — exponential failures, long MTBF relative
//     to the observation horizon, quick repairs.
//   - High: a failure-prone machine — bursty Weibull(0.7) failures with
//     clustered downtime.
//
// Intensity.Config scales the process to a workload's observation horizon
// (see JobsHorizon), so the axis "bites" equally hard at 120-job test
// scale and 5000-job paper scale.
//
// # Seeding under replication
//
// A replicated suite varies the failure process per replication the same
// way it varies the trace and QoS draws: replication r uses FaultSeed +
// experiment.ReplicationSeedStride·r. Like every seed stream in this
// repository, the convention is part of the reproducibility contract —
// journals and goldens assume it.
package faults

// Package experiment implements the paper's evaluation methodology (§5)
// and the machinery that runs it at scale.
//
// The methodology: the twelve scenarios of Table VI ([Scenarios]), each
// varying one parameter over six values while everything else stays at its
// Table VI default ([DefaultParams]); the Set A (accurate estimates) /
// Set B (trace estimates) split; and a suite runner ([Run]) that produces,
// for every (scenario, value, policy) cell, the objective report of one
// trace-driven simulation — or the average over [SuiteConfig.Replications]
// independently seeded ones.
//
// The machinery: Run fans the up-to-1440-cell grid of one (model, Set)
// panel across a worker pool, with every random draw seeded so results are
// bit-for-bit reproducible at any worker count. Three facilities make long
// runs manageable:
//
//   - Observation. [SuiteConfig.Observer] receives obs.Reporter events —
//     suite start, each cell's start and completion (concurrently, from
//     the workers), suite end — for live progress, journaling, and
//     throughput counters. The default is no observation at no cost.
//
//   - Checkpoint/resume. [SuiteConfig.CellKey] hashes a cell's full
//     parameterization (model, Set, scenario, value, policy, trace
//     length, machine size, seeds, replications, workload calibration)
//     into a deterministic identity. [SuiteConfig.Resume], fed from a
//     prior run's journal (obs.LoadJournal), makes Run skip cells whose
//     key is already recorded and reuse their reports verbatim — an
//     interrupted sweep finishes from where it died, and a config tweak
//     re-runs exactly the cells it invalidated.
//
//   - Persistence. [Results.WriteJSON] / [ReadJSON] round-trip a suite's
//     raw reports so later analysis (new weights, new objectives) does
//     not re-simulate.
//
// Every replication runs through the federation meta-broker (broker.Run);
// a nil [SuiteConfig.Federation] is the neutral one-cluster federation of
// the suite's machine. [RunCell] runs one cell on the same worker pool.
//
// Beyond the paper's grid, the package provides series builders for the
// risk plots ([Results.SeparateSeries], [Results.IntegratedSeries]), the
// paper's conclusion and a-priori use ([Results.Recommend],
// [Results.APriori]), and bootstrap ranking stability
// ([RankFirstProbability]).
package experiment

// Package metrics records per-job outcomes during a simulation and computes
// the paper's four objectives (§3):
//
//	wait          Eq. 1: mean time from submission to execution start over
//	              jobs whose SLA was fulfilled (lower is better);
//	SLA           Eq. 2: % of submitted jobs with SLA fulfilled;
//	reliability   Eq. 3: % of accepted jobs with SLA fulfilled;
//	profitability Eq. 4: % of total submitted budget earned as utility.
//
// Table I classifies the first three as user-centric and profitability as
// provider-centric.
//
// It also computes the Computation-at-Risk–style slowdown and response-time
// summaries the related work (Kleban & Clearwater) measures, used by the
// extension benches.
package metrics

package streamrisk

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/risk"
	"repro/internal/stats"
)

// OfflineScores recomputes one parsed journal's Scores the offline way:
// samples materialized into slices and scored with risk.Separate /
// risk.IntegrateEqual — the genuine two-pass Eq. 5–8 computation, not the
// engine's streaming sums. The differential battery pins the invariant that
// an Engine fed the same journal reports bit-identical cumulative scores.
//
//lint:allow deadcode — the offline oracle the serve, serve/control and cmd/riskserved stream tests compare the live engine against
func OfflineScores(rec *obs.SessionRecord, windowSize int) (Scores, error) {
	return OfflineSequence([]*obs.SessionRecord{rec}, windowSize)
}

// OfflineSequence recomputes the Scores of several journals ingested
// back-to-back in slice order — the global (or policy/cluster) scope of an
// engine that consumed those sessions sequentially.
func OfflineSequence(recs []*obs.SessionRecord, windowSize int) (Scores, error) {
	if windowSize <= 0 {
		windowSize = DefaultWindow
	}
	var out Scores
	var samples [NumObjectives][]float64
	for _, rec := range recs {
		for _, d := range rec.Decisions {
			smp := DecisionSamples(d)
			out.countDecision(d)
			for o := 0; o < NumObjectives; o++ {
				samples[o] = append(samples[o], smp[o])
			}
		}
		if rec.Final != nil {
			out.countFinal(rec.Final.Report)
		}
	}
	out.deriveRatios()
	for o := 0; o < NumObjectives; o++ {
		if len(samples[o]) == 0 {
			continue // zero point, matching an empty engine scope
		}
		p, err := risk.Separate(samples[o])
		if err != nil {
			return Scores{}, fmt.Errorf("streamrisk: offline separate analysis of %v: %w", Objective(o), err)
		}
		out.Cumulative[o] = p
	}
	out.Integrated = risk.IntegrateEqual(out.Cumulative[:])

	// The sliding window: the last windowSize samples, scored with the same
	// Welford walk the live window uses (the ring buffer is what the battery
	// exercises; the two-pass check above is the cumulative invariant).
	n := len(samples[0])
	lo := n - windowSize
	if lo < 0 {
		lo = 0
	}
	out.WindowSize = n - lo
	for o := 0; o < NumObjectives; o++ {
		var acc stats.Welford
		for i := lo; i < n; i++ {
			acc.Add(samples[o][i])
		}
		out.Window[o] = risk.Point{Performance: acc.Mean(), Volatility: acc.StdDev()}
	}
	out.WindowIntegrated = risk.IntegrateEqual(out.Window[:])
	return out, nil
}

package experiment

import (
	"fmt"

	"repro/internal/economy"
	"repro/internal/risk"
)

// SeparateSeries computes, for each policy, the separate risk analysis of
// one objective across all scenarios (one point per scenario): the input of
// a Figure 3/6-style plot.
func (r *Results) SeparateSeries(obj risk.Objective) ([]risk.Series, error) {
	series := make([]risk.Series, len(r.Policies))
	for i, p := range r.Policies {
		series[i] = risk.Series{Policy: p, Points: make([]risk.Point, 0, len(r.Scenarios))}
	}
	for si, sc := range r.Scenarios {
		for i := range series {
			series[i].Labels = append(series[i].Labels, r.Scenarios[si].Name)
		}
		normalized := make(map[string][]float64, len(r.Policies))
		for vi := range sc.Values {
			raw := make(map[string]float64, len(r.Policies))
			for _, p := range r.Policies {
				rep, ok := sc.Reports[vi][p]
				if !ok {
					return nil, fmt.Errorf("experiment: missing report for %s at %s[%d]", p, sc.Name, vi)
				}
				raw[p] = risk.Raw(obj, rep)
			}
			for p, n := range risk.NormalizeAcross(obj, raw) {
				normalized[p] = append(normalized[p], n)
			}
		}
		for i, p := range r.Policies {
			pt, err := risk.Separate(normalized[p])
			if err != nil {
				return nil, fmt.Errorf("experiment: %s/%s: %w", p, sc.Name, err)
			}
			series[i].Points = append(series[i].Points, pt)
		}
	}
	return series, nil
}

// IntegratedSeries computes, for each policy, the integrated risk analysis
// of the given objectives (equal weights) across all scenarios: the input
// of a Figure 4/5/7/8-style plot.
func (r *Results) IntegratedSeries(objs []risk.Objective) ([]risk.Series, error) {
	return r.IntegratedSeriesWeighted(objs, risk.EqualWeights(objs))
}

// IntegratedSeriesWeighted is IntegratedSeries with explicit weights (used
// by the weight-sensitivity ablation).
func (r *Results) IntegratedSeriesWeighted(objs []risk.Objective, w risk.Weights) ([]risk.Series, error) {
	perObjective := make(map[risk.Objective][]risk.Series, len(objs))
	for _, o := range objs {
		s, err := r.SeparateSeries(o)
		if err != nil {
			return nil, err
		}
		perObjective[o] = s
	}
	out := make([]risk.Series, len(r.Policies))
	for i, p := range r.Policies {
		out[i] = risk.Series{Policy: p, Points: make([]risk.Point, 0, len(r.Scenarios))}
		for si := range r.Scenarios {
			out[i].Labels = append(out[i].Labels, r.Scenarios[si].Name)
			points := make(map[risk.Objective]risk.Point, len(objs))
			for _, o := range objs {
				points[o] = perObjective[o][i].Points[si]
			}
			pt, err := risk.Integrate(points, w)
			if err != nil {
				return nil, err
			}
			out[i].Points = append(out[i].Points, pt)
		}
	}
	return out, nil
}

// Recommendation summarizes a suite the way the paper's conclusion does:
// the best policy per single objective and overall.
type Recommendation struct {
	Model economy.Model
	Set   string
	// PerObjective maps each objective to the policy with the best
	// separate-analysis performance ranking.
	PerObjective map[risk.Objective]string
	// Overall is the best policy for the integrated analysis of all four
	// objectives by performance (Table III criteria); OverallSafest by
	// volatility (Table IV criteria).
	Overall       string
	OverallSafest string
}

// Recommend computes the recommendation.
func (r *Results) Recommend() (Recommendation, error) {
	rec := Recommendation{
		Model:        r.Model,
		Set:          r.SetName,
		PerObjective: make(map[risk.Objective]string, risk.NumObjectives),
	}
	for _, obj := range risk.AllObjectives {
		series, err := r.SeparateSeries(obj)
		if err != nil {
			return Recommendation{}, err
		}
		ranked, err := risk.RankByPerformance(series)
		if err != nil {
			return Recommendation{}, err
		}
		rec.PerObjective[obj] = ranked[0].Series.Policy
	}
	series, err := r.IntegratedSeries(risk.AllObjectives)
	if err != nil {
		return Recommendation{}, err
	}
	best, err := risk.RankByPerformance(series)
	if err != nil {
		return Recommendation{}, err
	}
	safest, err := risk.RankByVolatility(series)
	if err != nil {
		return Recommendation{}, err
	}
	rec.Overall, rec.OverallSafest = best[0].Series.Policy, safest[0].Series.Policy
	return rec, nil
}

// APriori fits the forward risk model to every policy's integrated series
// and returns, for each, the estimated probability of falling below the
// target performance in a future scenario.
func (r *Results) APriori(objs []risk.Objective, targetPerformance float64) ([]risk.Projection, error) {
	if targetPerformance < 0 || targetPerformance > 1 {
		return nil, fmt.Errorf("experiment: target performance %v outside [0,1]", targetPerformance)
	}
	series, err := r.IntegratedSeries(objs)
	if err != nil {
		return nil, err
	}
	out := make([]risk.Projection, 0, len(series))
	for _, s := range series {
		p, err := risk.Project(s)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// ObjectiveTriples returns the paper's four three-objective combinations in
// figure order: each drops exactly one objective (Figures 4 and 7 panels
// a/b, c/d, e/f, g/h drop wait, SLA, reliability, profitability
// respectively).
func ObjectiveTriples() [][]risk.Objective {
	all := risk.AllObjectives
	out := make([][]risk.Objective, 0, len(all))
	for _, drop := range all {
		var combo []risk.Objective
		for _, o := range all {
			if o != drop {
				combo = append(combo, o)
			}
		}
		out = append(out, combo)
	}
	return out
}

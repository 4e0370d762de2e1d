package risk

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// Point is one (performance, volatility) pair: a policy's value and risk
// measure for one objective (or combination) in one scenario.
type Point struct {
	// Performance is the mean of the normalized results (Eq. 5 / Eq. 7).
	Performance float64
	// Volatility is their standard deviation (Eq. 6 / Eq. 8).
	Volatility float64
}

// Separate computes the separate risk analysis of one objective for one
// scenario (Eqs. 5–6): the mean and population standard deviation of the
// scenario's normalized results.
func Separate(normalized []float64) (Point, error) {
	if len(normalized) == 0 {
		return Point{}, fmt.Errorf("risk: separate analysis of no results")
	}
	for i, v := range normalized {
		if v < -1e-9 || v > 1+1e-9 || math.IsNaN(v) {
			return Point{}, fmt.Errorf("risk: normalized result %d = %v outside [0,1]", i, v)
		}
	}
	return Point{
		Performance: stats.Mean(normalized),
		Volatility:  stats.StdDev(normalized),
	}, nil
}

// Weights maps objectives to their importance, 0 ≤ w ≤ 1, summing to 1.
type Weights map[Objective]float64

// EqualWeights returns the paper's equal weighting over the given
// objectives (1/3 each for three objectives, 1/4 for all four).
func EqualWeights(objs []Objective) Weights {
	w := make(Weights, len(objs))
	for _, o := range objs {
		w[o] = 1 / float64(len(objs))
	}
	return w
}

// Validate checks the weight constraints of Eqs. 7–8. Objectives are
// checked in ascending order so the reported error — and the float
// summation order — are stable across runs.
func (w Weights) Validate() error {
	objs := make([]Objective, 0, len(w))
	for o := range w {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	sum := 0.0
	for _, o := range objs {
		v := w[o]
		if v < 0 || v > 1 {
			return fmt.Errorf("risk: weight of %v is %v, outside [0,1]", o, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("risk: weights sum to %v, want 1", sum)
	}
	return nil
}

// Integrate computes the integrated risk analysis (Eqs. 7–8): the weighted
// sum of the separate performance and volatility measures of each
// objective. Every weighted objective must have a point.
func Integrate(points map[Objective]Point, w Weights) (Point, error) {
	if err := w.Validate(); err != nil {
		return Point{}, err
	}
	if len(w) == 0 {
		return Point{}, fmt.Errorf("risk: integration over no objectives")
	}
	// Accumulate in objective order: float addition is not associative, and
	// map iteration order would otherwise make integrated points differ in
	// the last ulp between runs — enough to flip near-tie rankings.
	objs := make([]Objective, 0, len(w))
	for o := range w {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	var out Point
	for _, o := range objs {
		p, ok := points[o]
		if !ok {
			return Point{}, fmt.Errorf("risk: no separate analysis for objective %v", o)
		}
		out.Performance += w[o] * p.Performance
		out.Volatility += w[o] * p.Volatility
	}
	return out, nil
}

// Series is one policy's points across all scenarios — one trace on a risk
// analysis plot.
type Series struct {
	Policy string
	Points []Point
	// Labels optionally names each point's scenario (same length as
	// Points when set); emitters fall back to indices otherwise.
	Labels []string
}

// Label returns the i-th point's scenario label, or its index rendered as
// text when labels are not set.
func (s Series) Label(i int) string {
	if i < len(s.Labels) {
		return s.Labels[i]
	}
	return fmt.Sprintf("%d", i)
}

// QualifySeries returns a copy of the series with every policy name
// suffixed "@qualifier" — how federated panels label one cluster's share
// ("Libra@fast") so it cannot be mistaken for (or collide with) the
// federation-wide series of the same policy. Points and labels are shared,
// not copied: qualification is a relabeling, not a recomputation.
func QualifySeries(series []Series, qualifier string) []Series {
	out := make([]Series, len(series))
	for i, s := range series {
		out[i] = s
		out[i].Policy = s.Policy + "@" + qualifier
	}
	return out
}

// Summary condenses a series the way Table II does.
type Summary struct {
	Policy                string
	MaxPerformance        float64
	MinPerformance        float64
	PerformanceDifference float64
	MaxVolatility         float64
	MinVolatility         float64
	VolatilityDifference  float64
}

// Summarize computes the Table II summary of a series.
func Summarize(s Series) (Summary, error) {
	if len(s.Points) == 0 {
		return Summary{}, fmt.Errorf("risk: summary of empty series %q", s.Policy)
	}
	sum := Summary{Policy: s.Policy}
	sum.MaxPerformance, sum.MinPerformance = s.Points[0].Performance, s.Points[0].Performance
	sum.MaxVolatility, sum.MinVolatility = s.Points[0].Volatility, s.Points[0].Volatility
	for _, p := range s.Points[1:] {
		sum.MaxPerformance = math.Max(sum.MaxPerformance, p.Performance)
		sum.MinPerformance = math.Min(sum.MinPerformance, p.Performance)
		sum.MaxVolatility = math.Max(sum.MaxVolatility, p.Volatility)
		sum.MinVolatility = math.Min(sum.MinVolatility, p.Volatility)
	}
	sum.PerformanceDifference = sum.MaxPerformance - sum.MinPerformance
	sum.VolatilityDifference = sum.MaxVolatility - sum.MinVolatility
	return sum, nil
}

// Gradient classifies a series' trend line (§4.3): performance fitted
// against volatility by least squares.
type Gradient int

const (
	// GradientNA means no trend line exists (identical or too few distinct
	// points — the paper's policy A).
	GradientNA Gradient = iota
	// GradientZero means changing volatility with no change in performance.
	GradientZero
	// GradientDecreasing means lower volatility for higher performance
	// (preferred).
	GradientDecreasing
	// GradientIncreasing means higher volatility for higher performance.
	GradientIncreasing
)

// String names the gradient as the paper's tables do.
func (g Gradient) String() string {
	switch g {
	case GradientNA:
		return "NA"
	case GradientZero:
		return "Zero"
	case GradientDecreasing:
		return "Decreasing"
	case GradientIncreasing:
		return "Increasing"
	default:
		return fmt.Sprintf("Gradient(%d)", int(g))
	}
}

// gradientEps is the slope magnitude below which a trend line counts as
// zero gradient.
const gradientEps = 1e-9

// TrendGradient fits and classifies the series' trend line.
func TrendGradient(s Series) Gradient {
	if len(s.Points) < 2 {
		return GradientNA
	}
	x := make([]float64, len(s.Points))
	y := make([]float64, len(s.Points))
	distinct := false
	for i, p := range s.Points {
		x[i] = p.Volatility
		y[i] = p.Performance
		if p != s.Points[0] {
			distinct = true
		}
	}
	if !distinct {
		return GradientNA
	}
	slope, _, ok := stats.LinearFit(x, y)
	if !ok {
		// Volatility constant: a vertical spread has no usable trend line.
		return GradientNA
	}
	switch {
	case math.Abs(slope) < gradientEps:
		return GradientZero
	case slope < 0:
		return GradientDecreasing
	default:
		return GradientIncreasing
	}
}

// MostVolatileScenario returns the index and label of the series' point
// with the highest volatility — the scenario that drives the policy's risk
// the hardest, the attribution a provider reads off a risk plot.
func MostVolatileScenario(s Series) (int, string, error) {
	if len(s.Points) == 0 {
		return 0, "", fmt.Errorf("risk: volatility attribution over empty series %q", s.Policy)
	}
	best := 0
	for i, p := range s.Points {
		if p.Volatility > s.Points[best].Volatility {
			best = i
		}
	}
	return best, s.Label(best), nil
}

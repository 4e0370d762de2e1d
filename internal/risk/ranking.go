package risk

import (
	"fmt"
	"math"
	"sort"
)

// Ranked is one row of a Table III/IV-style ranking.
type Ranked struct {
	Rank int
	Series
	Summary
	Gradient Gradient
	// Concentration is the mean distance of the series' points from its
	// ideal corner (min volatility, max performance); used as the final
	// tie-break (the paper prefers policy C, whose points cluster near its
	// best corner, over the evenly spread policy D).
	Concentration float64
}

// gradientPreference orders gradients as §4.3 prefers: decreasing,
// increasing, zero, with NA last.
func gradientPreference(g Gradient) int {
	switch g {
	case GradientDecreasing:
		return 0
	case GradientIncreasing:
		return 1
	case GradientZero:
		return 2
	default:
		return 3
	}
}

// concentration measures how tightly a series clusters around its own best
// corner.
func concentration(s Series, sum Summary) float64 {
	total := 0.0
	for _, p := range s.Points {
		dv := p.Volatility - sum.MinVolatility
		dp := p.Performance - sum.MaxPerformance
		total += math.Hypot(dv, dp)
	}
	return total / float64(len(s.Points))
}

func buildRanked(series []Series) ([]Ranked, error) {
	out := make([]Ranked, 0, len(series))
	for _, s := range series {
		sum, err := Summarize(s)
		if err != nil {
			return nil, err
		}
		out = append(out, Ranked{
			Series:        s,
			Summary:       sum,
			Gradient:      TrendGradient(s),
			Concentration: concentration(s, sum),
		})
	}
	return out, nil
}

// cmp compares two float64 criteria; returns -1/0/+1.
func cmp(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// criterion is one comparison step of the paper's ranking procedures.
type criterion struct {
	name string
	// cmp returns <0 if a ranks better, >0 if b does, 0 to continue.
	cmp func(a, b Ranked) int
}

// performanceCriteria is Table III's order: (i) maximum performance
// (higher first), (ii) minimum volatility (lower first), (iii)
// performance difference (lower first), (iv) volatility difference (lower
// first), (v) gradient preference, then point concentration.
var performanceCriteria = []criterion{
	{"maximum performance", func(a, b Ranked) int { return cmp(b.MaxPerformance, a.MaxPerformance) }},
	{"minimum volatility", func(a, b Ranked) int { return cmp(a.MinVolatility, b.MinVolatility) }},
	{"performance difference", func(a, b Ranked) int { return cmp(a.PerformanceDifference, b.PerformanceDifference) }},
	{"volatility difference", func(a, b Ranked) int { return cmp(a.VolatilityDifference, b.VolatilityDifference) }},
	{"trend-line gradient", func(a, b Ranked) int { return gradientPreference(a.Gradient) - gradientPreference(b.Gradient) }},
	{"point concentration", func(a, b Ranked) int { return cmp(a.Concentration, b.Concentration) }},
}

// volatilityCriteria is Table IV's order: (i) minimum volatility (lower
// first), (ii) maximum performance (higher first), (iii) volatility
// difference (lower first), (iv) performance difference (lower first),
// (v) gradient preference, then point concentration.
var volatilityCriteria = []criterion{
	{"minimum volatility", func(a, b Ranked) int { return cmp(a.MinVolatility, b.MinVolatility) }},
	{"maximum performance", func(a, b Ranked) int { return cmp(b.MaxPerformance, a.MaxPerformance) }},
	{"volatility difference", func(a, b Ranked) int { return cmp(a.VolatilityDifference, b.VolatilityDifference) }},
	{"performance difference", func(a, b Ranked) int { return cmp(a.PerformanceDifference, b.PerformanceDifference) }},
	{"trend-line gradient", func(a, b Ranked) int { return gradientPreference(a.Gradient) - gradientPreference(b.Gradient) }},
	{"point concentration", func(a, b Ranked) int { return cmp(a.Concentration, b.Concentration) }},
}

// decide returns the first criterion that orders a and b, with its
// verdict (<0 if a ranks better, >0 if b does); the verdict is 0 when
// they tie on every criterion.
func decide(criteria []criterion, a, b Ranked) (name string, verdict int) {
	for _, c := range criteria {
		if v := c.cmp(a, b); v != 0 {
			return c.name, v
		}
	}
	return "", 0
}

// RankByPerformance ranks policies for best performance (Table III): by
// performanceCriteria, then by policy name for stability.
func RankByPerformance(series []Series) ([]Ranked, error) {
	return rankBy(series, performanceCriteria)
}

// RankByVolatility ranks policies for best volatility (Table IV): by
// volatilityCriteria, then by policy name for stability.
func RankByVolatility(series []Series) ([]Ranked, error) {
	return rankBy(series, volatilityCriteria)
}

// rankBy sorts the series' ranked summaries by the criteria in turn, then
// by policy name, and numbers the ranks from 1.
func rankBy(series []Series, criteria []criterion) ([]Ranked, error) {
	ranked, err := buildRanked(series)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(ranked, func(i, j int) bool {
		if _, v := decide(criteria, ranked[i], ranked[j]); v != 0 {
			return v < 0
		}
		return ranked[i].Series.Policy < ranked[j].Series.Policy
	})
	for i := range ranked {
		ranked[i].Rank = i + 1
	}
	return ranked, nil
}

// RankingTable formats a ranking as rows of the paper's table shape.
func RankingTable(ranked []Ranked, byVolatility bool) []string {
	rows := make([]string, 0, len(ranked)+1)
	if byVolatility {
		rows = append(rows, "Rank Policy MinVol MaxPerf VolDiff PerfDiff Gradient")
	} else {
		rows = append(rows, "Rank Policy MaxPerf MinVol PerfDiff VolDiff Gradient")
	}
	for _, r := range ranked {
		if byVolatility {
			rows = append(rows, fmt.Sprintf("%d %s %.2f %.2f %.2f %.2f %s",
				r.Rank, r.Series.Policy, r.MinVolatility, r.MaxPerformance,
				r.VolatilityDifference, r.PerformanceDifference, r.Gradient))
			continue
		}
		rows = append(rows, fmt.Sprintf("%d %s %.2f %.2f %.2f %.2f %s",
			r.Rank, r.Series.Policy, r.MaxPerformance, r.MinVolatility,
			r.PerformanceDifference, r.VolatilityDifference, r.Gradient))
	}
	return rows
}

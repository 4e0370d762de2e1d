package risk

import "fmt"

// Explain states which criterion of the given ranking procedure decides
// the order between two ranked policies — the sentence a report prints
// next to a Table III/IV row ("C precedes D on point concentration").
// byVolatility selects Table IV's criteria order; otherwise Table III's.
func Explain(a, b Ranked, byVolatility bool) string {
	criteria := performanceCriteria
	if byVolatility {
		criteria = volatilityCriteria
	}
	switch name, v := decide(criteria, a, b); {
	case v < 0:
		return fmt.Sprintf("%s precedes %s on %s", a.Series.Policy, b.Series.Policy, name)
	case v > 0:
		return fmt.Sprintf("%s precedes %s on %s", b.Series.Policy, a.Series.Policy, name)
	}
	return fmt.Sprintf("%s and %s tie on every criterion", a.Series.Policy, b.Series.Policy)
}

// ExplainRanking annotates a full ranking: for each adjacent pair, the
// deciding criterion.
func ExplainRanking(ranked []Ranked, byVolatility bool) []string {
	if len(ranked) < 2 {
		return nil
	}
	out := make([]string, 0, len(ranked)-1)
	for i := 0; i+1 < len(ranked); i++ {
		out = append(out, Explain(ranked[i], ranked[i+1], byVolatility))
	}
	return out
}

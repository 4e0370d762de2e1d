// Command riskreport turns saved suite results (results.json files written
// by riskbench) into a self-contained markdown report: per-objective
// separate risk analysis, the integrated analysis, Table II-style
// summaries, Table III/IV rankings, the Pareto front, and the a-priori
// projections — the full decision document the paper envisions a provider
// producing before choosing a policy.
//
// Example:
//
//	riskreport -in results/bid-based/set-b/results.json > report.md
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiment"
	"repro/internal/risk"
)

func main() {
	var (
		in     = flag.String("in", "", "results.json written by riskbench (default stdin)")
		target = flag.Float64("target", 0.6, "a-priori performance target")
	)
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	res, err := experiment.ReadJSON(r)
	if err != nil {
		fatal(err)
	}
	if err := report(os.Stdout, res, *target); err != nil {
		fatal(err)
	}
}

func report(w io.Writer, res *experiment.Results, target float64) error {
	fmt.Fprintf(w, "# Risk analysis report — %s model, %s\n\n", res.Model, res.SetName)
	fmt.Fprintf(w, "Policies: %s. Scenarios: %d (Table VI), six values each.\n\n",
		strings.Join(res.Policies, ", "), len(res.Scenarios))

	fmt.Fprintf(w, "## Separate risk analysis\n\n")
	for _, obj := range risk.AllObjectives {
		series, err := res.SeparateSeries(obj)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "### Objective: %s\n\n", obj)
		if err := summaryMarkdown(w, series); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "## Integrated risk analysis (all four objectives, equal weights)\n\n")
	series, err := res.IntegratedSeries(risk.AllObjectives)
	if err != nil {
		return err
	}
	if err := summaryMarkdown(w, series); err != nil {
		return err
	}

	perf, err := risk.RankByPerformance(series)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "### Ranking by best performance (Table III criteria)\n\n")
	rankMarkdown(w, perf)
	for _, note := range risk.ExplainRanking(perf, false) {
		fmt.Fprintf(w, "- %s\n", note)
	}
	fmt.Fprintln(w)
	vol, err := risk.RankByVolatility(series)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "### Ranking by best volatility (Table IV criteria)\n\n")
	rankMarkdown(w, vol)

	front, err := risk.ParetoFront(series)
	if err != nil {
		return err
	}
	names := make([]string, len(front))
	for i, f := range front {
		names[i] = f.Series.Policy
	}
	fmt.Fprintf(w, "### Pareto front\n\nUndominated policies (performance vs volatility): %s.\n\n",
		strings.Join(names, ", "))

	fmt.Fprintf(w, "### Volatility attribution\n\nThe scenario driving each policy's risk hardest:\n\n")
	fmt.Fprintf(w, "| Policy | scenario | volatility |\n|---|---|---|\n")
	for _, s := range series {
		idx, label, err := risk.MostVolatileScenario(s)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %s | %s | %.3f |\n", s.Policy, label, s.Points[idx].Volatility)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "### Ranking stability (paired bootstrap)\n\n")
	fmt.Fprintf(w, "Probability of topping the best-performance ranking under resampled scenario values:\n\n")
	probs, err := experiment.RankFirstProbability(res, risk.AllObjectives, 1000, 11)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "| Policy | P(first) |\n|---|---|\n")
	for _, p := range res.Policies {
		fmt.Fprintf(w, "| %s | %.1f%% |\n", p, probs[p]*100)
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "## A-priori projection\n\n")
	fmt.Fprintf(w, "Estimated probability of integrated performance below %.2f in a future scenario:\n\n", target)
	projections, err := res.APriori(risk.AllObjectives, target)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "| Policy | mean | spread | risk |\n|---|---|---|---|\n")
	for _, p := range projections {
		fmt.Fprintf(w, "| %s | %.3f | %.3f | %.1f%% |\n", p.Policy, p.Mean, p.Spread, p.RiskBelow(target)*100)
	}
	safest, err := risk.SafestPolicy(projections, target)
	if err != nil {
		return err
	}
	rec, err := res.Recommend()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n## Recommendation\n\n")
	fmt.Fprintf(w, "- Best overall performance: **%s**\n", rec.Overall)
	fmt.Fprintf(w, "- Best overall volatility: **%s**\n", rec.OverallSafest)
	fmt.Fprintf(w, "- Safest against the %.2f target: **%s**\n", target, safest.Policy)
	for _, obj := range risk.AllObjectives {
		fmt.Fprintf(w, "- Best for %s: **%s**\n", obj, rec.PerObjective[obj])
	}
	return nil
}

func summaryMarkdown(w io.Writer, series []risk.Series) error {
	fmt.Fprintf(w, "| Policy | max perf | min perf | max vol | min vol | gradient |\n|---|---|---|---|---|---|\n")
	for _, s := range series {
		sum, err := risk.Summarize(s)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %s | %.3f | %.3f | %.3f | %.3f | %s |\n",
			s.Policy, sum.MaxPerformance, sum.MinPerformance,
			sum.MaxVolatility, sum.MinVolatility, risk.TrendGradient(s))
	}
	fmt.Fprintln(w)
	return nil
}

func rankMarkdown(w io.Writer, ranked []risk.Ranked) {
	fmt.Fprintf(w, "| Rank | Policy | Gradient |\n|---|---|---|\n")
	for _, r := range ranked {
		fmt.Fprintf(w, "| %d | %s | %s |\n", r.Rank, r.Series.Policy, r.Gradient)
	}
	fmt.Fprintln(w)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "riskreport:", err)
	os.Exit(1)
}

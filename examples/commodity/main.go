// Commodity-market walkthrough: reproduce a small-scale version of the
// paper's Figure 5 — integrated risk analysis of all four objectives for
// the five commodity-market policies, in Set A and Set B — and print the
// risk plots plus the recommended policy for each set.
//
// The paper's result to look for: the Libra family leads when estimates
// are accurate (Set A); with the trace's inaccurate estimates (Set B) the
// backfilling policies close the gap or take over.
package main

import (
	"fmt"
	"log"

	"repro/internal/economy"
	"repro/internal/experiment"
	"repro/internal/plot"
	"repro/internal/risk"
)

func main() {
	for _, setB := range []bool{false, true} {
		cfg := experiment.DefaultSuiteConfig(economy.Commodity, setB)
		cfg.Jobs = 800 // keep the example fast; cmd/riskbench runs paper scale
		res, err := experiment.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		series, err := res.IntegratedSeries(risk.AllObjectives)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(plot.ASCII(series, plot.Config{
			Title: fmt.Sprintf("Integrated risk analysis, all four objectives (%s)", cfg.SetName()),
		}))
		rec, err := res.Recommend()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: best overall %s (safest %s)\n", cfg.SetName(), rec.Overall, rec.OverallSafest)
		for _, obj := range risk.AllObjectives {
			fmt.Printf("  best for %-13s %s\n", obj.String()+":", rec.PerObjective[obj])
		}
		fmt.Println()
	}
}

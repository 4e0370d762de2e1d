// A-priori walkthrough: the forward use of the risk analysis the paper
// proposes in its abstract and conclusion. After measuring every policy's
// a-posteriori (performance, volatility) points, a provider facing a NEW
// situation can ask: "if next quarter looks like a scenario I haven't run,
// what is the chance each policy under-delivers?"
//
// This example assesses the bid-based policies in Set B, fits the normal
// projection to each policy's integrated series, and prints the estimated
// risk of falling below several performance targets.
package main

import (
	"fmt"
	"log"

	"repro/internal/economy"
	"repro/internal/experiment"
	"repro/internal/risk"
)

func main() {
	cfg := experiment.DefaultSuiteConfig(economy.BidBased, true)
	cfg.Jobs = 800
	res, err := experiment.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	projections, err := res.APriori(risk.AllObjectives, 0.6)
	if err != nil {
		log.Fatal(err)
	}

	targets := []float64{0.5, 0.6, 0.7, 0.8}
	fmt.Println("A-priori risk of integrated performance falling below target")
	fmt.Println("(bid-based model, Set B, all four objectives, equal weights)")
	fmt.Printf("\n%-12s %8s %8s", "Policy", "mean", "spread")
	for _, tgt := range targets {
		fmt.Printf("  P(<%.1f)", tgt)
	}
	fmt.Println()
	for _, p := range projections {
		fmt.Printf("%-12s %8.3f %8.3f", p.Policy, p.Mean, p.Spread)
		for _, tgt := range targets {
			fmt.Printf("  %6.1f%%", p.RiskBelow(tgt)*100)
		}
		fmt.Println()
	}

	safest, err := risk.SafestPolicy(projections, 0.6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFor a required performance of 0.6, adopt %s (risk %.1f%%).\n",
		safest.Policy, safest.RiskBelow(0.6)*100)
}

// Bid-based walkthrough: the paper's second economic model, where the
// user's budget is a bid and late completion incurs an unbounded linear
// penalty (Figure 2). This example shows the penalty function itself, then
// a small-scale Figure 8 — integrated risk analysis of all four objectives
// for the five bid-based policies under inaccurate estimates (Set B).
//
// The paper's result to look for: LibraRiskD keeps the best performance
// under inaccurate estimates while plain Libra degrades; FirstReward sits
// low on performance but lowest on volatility.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/economy"
	"repro/internal/experiment"
	"repro/internal/plot"
	"repro/internal/risk"
	"repro/internal/workload"
)

func main() {
	penaltyFunction()

	cfg := experiment.DefaultSuiteConfig(economy.BidBased, true)
	cfg.Jobs = 800
	res, err := experiment.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	series, err := res.IntegratedSeries(risk.AllObjectives)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(plot.ASCII(series, plot.Config{
		Title: "Bid-based model, Set B: integrated risk analysis of all four objectives",
	}))
	ranked, err := risk.RankByPerformance(series)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Ranking by best performance:")
	for _, row := range risk.RankingTable(ranked, false) {
		fmt.Println(" ", row)
	}
}

// penaltyFunction sketches Figure 2: utility against completion time for
// one job under the bid-based model.
func penaltyFunction() {
	j := &workload.Job{
		ID: 1, Submit: 0, Runtime: 3600, Estimate: 3600, Procs: 1,
		Deadline: 7200, Budget: 1000, PenaltyRate: 0.5,
	}
	fmt.Println("Figure 2 — bid-based penalty function (budget $1000, deadline 7200 s, rate $0.5/s):")
	fmt.Println("  finish(s)  utility($)")
	for _, finish := range []float64{3600, 7200, 8200, 9200, 10200, 12200} {
		u := economy.BidUtility(j, finish)
		bar := ""
		if u > 0 {
			bar = strings.Repeat("#", int(u/50))
		}
		fmt.Printf("  %8.0f  %9.0f  %s\n", finish, u, bar)
	}
	fmt.Println()
}

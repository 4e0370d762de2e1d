package experiment_test

import (
	"fmt"

	"repro/internal/economy"
	"repro/internal/experiment"
	"repro/internal/risk"
	"repro/internal/workload"
)

// The end-to-end workflow of the paper, at toy scale: run the bid-based
// policies under inaccurate estimates and ask which to adopt.
func ExampleResults_Recommend() {
	cfg := experiment.DefaultSuiteConfig(economy.BidBased, true)
	cfg.Jobs = 60
	cfg.Nodes = 16
	synth := workload.DefaultSynthConfig()
	synth.Widths = []int{1, 2, 4, 8, 16}
	synth.WidthWeights = []float64{0.3, 0.25, 0.2, 0.15, 0.1}
	cfg.Synth = &synth

	res, err := experiment.Run(cfg)
	if err != nil {
		panic(err)
	}
	rec, err := res.Recommend()
	if err != nil {
		panic(err)
	}
	fmt.Println("model:", rec.Model)
	fmt.Println("set:", rec.Set)
	fmt.Println("best for wait:", rec.PerObjective[risk.Wait])
	// The overall winner depends on the toy workload; assert only that one
	// of the evaluated policies was chosen.
	found := false
	for _, p := range res.Policies {
		if p == rec.Overall {
			found = true
		}
	}
	fmt.Println("overall pick is an evaluated policy:", found)
	// Output:
	// model: bid-based
	// set: Set B
	// best for wait: Libra
	// overall pick is an evaluated policy: true
}

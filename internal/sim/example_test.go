package sim_test

import (
	"fmt"

	"repro/internal/sim"
)

// A minimal simulation: two events, one cancelled timer, deterministic
// order.
func Example() {
	engine := sim.NewEngine()
	engine.MustSchedule(10, "greet", func() {
		fmt.Printf("t=%v: job arrives\n", engine.Now())
		engine.MustSchedule(engine.Now()+5, "finish", func() {
			fmt.Printf("t=%v: job finishes\n", engine.Now())
		})
	})
	timeout := engine.MustSchedule(100, "timeout", func() {
		fmt.Println("timeout fired (should not happen)")
	})
	engine.MustSchedule(20, "cancel", func() { engine.Cancel(timeout) })
	engine.Run()
	fmt.Printf("fired %d events\n", engine.Fired())
	// Output:
	// t=10: job arrives
	// t=15: job finishes
	// fired 3 events
}

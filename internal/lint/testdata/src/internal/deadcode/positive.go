// Package deadcode is the golden case for the deadcode rule, placed under
// internal/ so the rule's scope applies. The corpus's program
// (cmd/fixture) calls Live; every other function here is reached through
// one of the rule's other roots, or is reported.
package deadcode

// Live is what main calls; its callee is reached through it.
func Live() {
	liveCallee()
}

func liveCallee() {}

// Exported is part of the package API, but no program reaches it.
func Exported() { // want deadcode "deadcode.Exported is reached by no program"
	deadCallee()
}

// deadCallee is called, but only by a dead function.
func deadCallee() {} // want deadcode "deadcode.deadCallee is reached by no program"

func unexported() {} // want deadcode "deadcode.unexported is reached by no program"

// Counter's Peek is called only from a _test.go file, and test files never
// count as callers.
type Counter struct{ n int }

func (c *Counter) Peek() int { return c.n } // want deadcode "(*deadcode.Counter).Peek is reached by no program"

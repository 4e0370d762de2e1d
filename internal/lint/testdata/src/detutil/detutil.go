// Package detutil holds wall-clock and global-rand reads in helper
// functions: the direct-call rules fire at each read site, whoever calls
// the helper, and a //lint:allow directive on the site is the one
// documented exemption.
package detutil

import (
	"math/rand"
	"time"
)

// Stamp reads the wall clock.
func Stamp() time.Time {
	return time.Now() // want wallclock "time.Now"
}

// Draw uses the shared global rand.
func Draw() int {
	return rand.Intn(10) // want globalrand "math/rand.Intn"
}

// StampAllowed carries the documented exemption.
func StampAllowed() time.Time {
	return time.Now() //lint:allow wallclock — fixture: documented real-time read
}

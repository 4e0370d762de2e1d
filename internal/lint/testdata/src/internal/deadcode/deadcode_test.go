package deadcode

import "testing"

// A test calling Peek does not keep it alive.
func TestPeek(t *testing.T) {
	var c Counter
	if c.Peek() != 0 {
		t.Fatal("nonzero")
	}
}

package exporttest_test

import (
	"testing"

	"fixture/exporttest"
	"fixture/exporttest/user"
)

func TestDouble(t *testing.T) {
	if got := exporttest.Double(user.One()); got.N != 2 {
		t.Fatalf("Double = %v", got)
	}
}

// Package user imports the package under test, so the external test's
// view of it must be recompiled against the test build of exporttest.
package user

import "fixture/exporttest"

// One returns an Item of exporttest.
func One() exporttest.Item { return exporttest.Item{N: 1} }

// Package exporttest checks the loader's external-test view: its
// export_test.go hook must be visible to package exporttest_test, and a
// package importing exporttest must hand the external test the same types,
// exactly as go test compiles them. Loading fails if either is not so.
package exporttest

// Item is the type the hook and the importing package share.
type Item struct{ N int }

func double(i Item) Item { return Item{N: 2 * i.N} }

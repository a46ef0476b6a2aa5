//go:build !unix || race

package memseg

const offHeapTables = false

// mapTable keeps tables on the Go heap: under the race detector, which
// must see every access to the simulated heap, and on non-unix builds.
func mapTable(int) []byte { return nil }

func unmapTable([]byte) {}

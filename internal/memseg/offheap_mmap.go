//go:build unix && !race

package memseg

import "syscall"

// offHeapTables reports whether OffHeap maps tables outside the Go heap.
const offHeapTables = true

// mapTable returns size bytes of zeroed, private anonymous memory, or nil
// if the mapping fails (OffHeap then falls back to the Go heap).
func mapTable(size int) []byte {
	if size <= 0 {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	return b
}

func unmapTable(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic("memseg: munmap: " + err.Error())
	}
}

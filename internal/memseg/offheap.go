package memseg

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// mappedBytes counts the bytes of off-heap tables currently mapped.
var mappedBytes atomic.Int64

// OffHeap returns a zeroed table of n elements owned by owner. The
// simulator's fixed tables — the heap segment, the HTM line table and the
// STM orec table — are large, pointer-free and mostly untouched, so on the
// Go heap they would count in full towards the GC goal while costing no
// resident memory. Where the build allows (see offheap_mmap.go) OffHeap
// therefore places the table in an anonymous mapping outside the Go heap,
// whose pages the OS materializes on first touch, and arranges for a
// finalizer on owner to unmap it once owner is unreachable. Under the race
// detector, which only sees accesses to Go memory, on non-unix builds, and
// if the mapping fails, the table is an ordinary make'd slice.
//
// T must contain no Go pointers: the garbage collector does not scan the
// mapping. owner must have no other finalizer, must stay reachable for as
// long as the table is used, and is the only thing that may keep it
// alive; callers reach the table through owner.
func OffHeap[T any, O any](owner *O, n int) []T {
	size := n * int(unsafe.Sizeof(*new(T)))
	b := mapTable(size)
	if b == nil {
		return make([]T, n)
	}
	mappedBytes.Add(int64(size))
	runtime.SetFinalizer(owner, func(*O) {
		unmapTable(b)
		mappedBytes.Add(-int64(size))
	})
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n)
}

package memseg_test

import (
	"runtime"
	"testing"
	"time"

	"gotle/internal/memseg"
	"gotle/internal/tle"
)

// awaitMapped runs GC and finalizers until the mapped byte count falls to
// want. Finalizers run in dependency order (an HTM's before its heap's),
// so this can take several cycles.
func awaitMapped(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for memseg.MappedBytes() > want && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := memseg.MappedBytes(); got != want {
		t.Fatalf("mapped bytes = %d after GC, want the baseline %d", got, want)
	}
}

// Dropped runtimes give back their heap, HTM line table and orec table.
func TestOffHeapTablesReleasedWithRuntime(t *testing.T) {
	if !memseg.OffHeapTables {
		t.Skip("this build keeps the simulator's tables on the Go heap")
	}
	runtime.GC()
	base := memseg.MappedBytes()
	for i := 0; i < 100; i++ {
		r := tle.New(tle.PolicyHTMCondVar, tle.Config{Hybrid: true})
		if i == 0 && memseg.MappedBytes() <= base {
			t.Fatal("a hybrid runtime mapped no off-heap tables")
		}
		r.Close()
	}
	awaitMapped(t, base)
}

// A mapped segment costs the Go heap only its descriptor, so the GC goal
// does not grow with simulated heap that is never touched.
func TestOffHeapSegmentSkipsGoHeap(t *testing.T) {
	if !memseg.OffHeapTables {
		t.Skip("this build keeps the simulator's tables on the Go heap")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := memseg.New(1 << 23)
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("a 64 MiB segment grew HeapAlloc by %d bytes, want < 1 MiB", grew)
	}
	a, ok := m.Alloc(4)
	if !ok {
		t.Fatal("Alloc failed on a fresh segment")
	}
	m.Store(a, 42)
	if v := m.Load(a); v != 42 {
		t.Fatalf("Load = %d, want 42", v)
	}
}

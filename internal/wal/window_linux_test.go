package wal

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// With the process otherwise idle, the group-commit window must last about
// as long as configured. With time.Sleep the median was 2.1x the window
// on a 2-vCPU linux VM: the netpoller rounds sub-millisecond timeouts up
// to 1 ms.
func TestIdleFsyncWindowKeepsItsLength(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("with one P the window is a time.Sleep (see sleepWindow)")
	}
	const window = DefaultFsyncWindow
	took := make([]time.Duration, 100)
	for i := range took {
		start := time.Now()
		sleepWindow(window)
		took[i] = time.Since(start)
	}
	slices.Sort(took)
	if med := took[len(took)/2]; med > window*3/2 {
		t.Fatalf("median idle window = %v, want <= %v (1.5x the configured %v)", med, window*3/2, window)
	}
	if took[0] < window {
		t.Fatalf("shortest window = %v, shorter than the configured %v", took[0], window)
	}
}

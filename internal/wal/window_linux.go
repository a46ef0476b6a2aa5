package wal

import (
	"runtime"
	"syscall"
	"time"
)

// sleepWindow waits out one group-commit window. time.Sleep cannot: when
// every other goroutine is parked — the usual state of a durable server,
// whose connections all wait on the fsync — the runtime's netpoller
// rounds sub-millisecond timeouts up to a whole millisecond, so a 500 µs
// window took a median of 1.04 ms. A blocking nanosleep sleeps for the
// configured time instead, resuming after signal interruptions (Go's
// preemption signals) with the remaining time. It holds the syncer's P
// until sysmon hands it to runnable goroutines, which with a single P
// stalls the committers the window waits for (durable serving lost ~40%
// of its throughput at GOMAXPROCS=1), so one P keeps time.Sleep.
func sleepWindow(d time.Duration) {
	if runtime.GOMAXPROCS(0) < 2 {
		time.Sleep(d)
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

//go:build !linux

package wal

import "time"

// sleepWindow waits out one group-commit window (see window_linux.go for
// why linux does not use time.Sleep).
func sleepWindow(d time.Duration) { time.Sleep(d) }

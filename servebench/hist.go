package main

import (
	"math"
	"math/bits"
)

// latHist is a fixed-size log-linear latency histogram: exact below
// 64 ns, then 64 linear buckets per power of two (at most 1.6% wide), up
// to 2^40 ns. Its memory does not grow with the run, so recording
// latencies does not move rss_mb.
type latHist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSub     = 6
	histBuckets = (40 - histSub + 1) << histSub
)

func histBucket(ns int64) int {
	v := uint64(max(ns, 0))
	if v < 1<<histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSub - 1
	b := (e+1)<<histSub + int(v>>e) - 1<<histSub
	return min(b, histBuckets-1)
}

// histBounds is bucket b's lower bound and width in ns.
func histBounds(b int) (lo, width float64) {
	if b < 1<<histSub {
		return float64(b), 1
	}
	e := b>>histSub - 1
	m := b&(1<<histSub-1) + 1<<histSub
	return float64(uint64(m) << e), float64(uint64(1) << e)
}

func (h *latHist) record(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileUs is the nearest-rank q-quantile in µs, placed linearly within
// its bucket by rank (NaN when empty).
func (h *latHist) quantileUs(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := min(max(math.Ceil(q*float64(h.n)), 1), float64(h.n))
	cum := 0.0
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := histBounds(b)
			return (lo + w*(rank-cum-0.5)/float64(c)) / 1e3
		}
		cum += float64(c)
	}
	return math.NaN()
}

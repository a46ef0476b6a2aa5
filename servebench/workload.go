package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"gotle/internal/wal"
	"gotle/internal/workload"
)

// spec is one traffic mix. The names are fixed: later changes cite them.
type spec struct {
	name string
	why  string
	// keyspace and skew select keys through workload.Gen (skew > 1 is
	// Zipf, anything else uniform).
	keyspace int
	skew     float64
	valSizes []int
	mix      workload.Mix
	// cacheAside turns every get miss into a set of the same key with a
	// fresh value, sent after the miss is seen (a cache-aside client).
	cacheAside bool
	// preload sets every key once before warm-up.
	preload bool
	// htmWriteLines is the HTM write-set budget (0 = tleserved's default).
	htmWriteLines int
	// durable attaches the redo WAL and one loopback follower.
	durable bool
	// linearize checks per-key linearizability of the loopback history.
	linearize bool
}

var specs = []spec{
	{
		name:       "read-mostly",
		why:        "cache-aside reads over a working set twice the cache: protocol, kvstore get/LRU/eviction and HTM read transactions do the work",
		keyspace:   65536,
		skew:       1.1,
		valSizes:   []int{64},
		mix:        workload.Mix{},
		cacheAside: true,
		preload:    true,
	},
	{
		name:          "capacity-mixed",
		why:           "the serve-bench mix: 2 KiB sets overflow a 24-line HTM budget, so stm/epoch/adaptive, batch fusion and memseg alloc/free do the work",
		keyspace:      1024,
		valSizes:      []int{64, 2048},
		mix:           workload.Mix{SetPct: 30, DelPct: 5},
		htmWriteLines: 24,
		linearize:     true,
	},
	{
		name:          "durable-replicated",
		why:           "capacity-mixed plus the redo WAL and one loopback follower: the difference is the cost of durability and replication",
		keyspace:      1024,
		valSizes:      []int{64, 2048},
		mix:           workload.Mix{SetPct: 30, DelPct: 5},
		htmWriteLines: 24,
		durable:       true,
		linearize:     true,
	},
}

func specByName(name string) (*spec, error) {
	var names []string
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
		names = append(names, specs[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func (s *spec) String() string {
	skew := "uniform"
	if s.skew > 1 {
		skew = fmt.Sprintf("zipf(s=%g)", s.skew)
	}
	mix := s.mix.String()
	if s.cacheAside {
		mix = "get, set on miss"
	}
	return fmt.Sprintf("keys=%d %s values=%v mix=%s preload=%v wal=%v follower=%v",
		s.keyspace, skew, s.valSizes, mix, s.preload, s.durable, s.durable)
}

// serverFlags are the tleserved flags the benchmark wires, at tleserved's
// defaults except where a workload overrides them.
type serverFlags struct {
	policy          string
	adaptive        bool
	interval        time.Duration
	shards          int
	capacity        int
	mem             int
	conns           int
	queue           int
	htmWriteLines   int
	htmEventPPM     int
	fsyncWindow     time.Duration
	deferredReclaim bool
	stripeShift     int
}

func flagsFor(s *spec) serverFlags {
	return serverFlags{
		policy:          "htm-cv",
		adaptive:        true,
		interval:        50 * time.Millisecond,
		shards:          8,
		capacity:        4096,
		mem:             1 << 23,
		conns:           48,
		queue:           128,
		htmWriteLines:   s.htmWriteLines,
		htmEventPPM:     5,
		fsyncWindow:     wal.DefaultFsyncWindow,
		deferredReclaim: true,
		stripeShift:     3,
	}
}

// String renders the flags as a tleserved command line.
func (f serverFlags) String() string {
	return fmt.Sprintf("tleserved -policy %s -adaptive=%v -interval %v -shards %d -capacity %d -mem %d -conns %d -queue %d -htm-write-lines %d -htm-event-ppm %d -deferred-reclaim=%v -stripe-shift %d",
		f.policy, f.adaptive, f.interval, f.shards, f.capacity, f.mem, f.conns, f.queue,
		f.htmWriteLines, f.htmEventPPM, f.deferredReclaim, f.stripeShift)
}

// Values come from workload.Gen.Value: "w<worker>.s<seq>." padded with
// 'x' to one of the configured sizes. The prefix names exactly one set,
// so a 64-bit fingerprint (worker, seq) identifies a value, and the
// padding is checked byte for byte.

const (
	fpNone    uint64 = 0          // no value (a miss, or not a set)
	fpCorrupt uint64 = ^uint64(0) // a value no generator could have written
)

var padding = bytes.Repeat([]byte{'x'}, 1<<16)

// fingerprint parses and checks v. It returns fpCorrupt unless v is a
// well-formed generator value of one of sizes.
func fingerprint(v []byte, sizes []int) uint64 {
	w, rest, ok := parseField(v, 'w')
	if !ok {
		return fpCorrupt
	}
	s, rest, ok := parseField(rest, 's')
	if !ok || s == 0 || w >= 1<<20 || s >= 1<<40 {
		return fpCorrupt
	}
	prefix := len(v) - len(rest)
	sized := false
	for _, n := range sizes {
		if len(v) == max(n, prefix) {
			sized = true
		}
	}
	if !sized || !bytes.Equal(rest, padding[:len(rest)]) {
		return fpCorrupt
	}
	return fpOf(int(w), s)
}

func fpOf(w int, s uint64) uint64 { return uint64(w)<<40 | s }

func fpSplit(fp uint64) (w int, s uint64) { return int(fp >> 40), fp & (1<<40 - 1) }

// parseField reads "<tag><decimal>." from the front of b.
func parseField(b []byte, tag byte) (uint64, []byte, bool) {
	if len(b) < 3 || b[0] != tag {
		return 0, nil, false
	}
	i := 1
	var n uint64
	for i < len(b) && b[i] >= '0' && b[i] <= '9' && i < 14 {
		n = n*10 + uint64(b[i]-'0')
		i++
	}
	if i == 1 || i >= len(b) || b[i] != '.' {
		return 0, nil, false
	}
	return n, b[i+1:], true
}

// valueOf rebuilds the generator value with fingerprint fp and length n
// (the layer pass replays the loopback stream's exact bytes).
func valueOf(fp uint64, n int) []byte {
	w, s := fpSplit(fp)
	v := fmt.Appendf(nil, "w%d.s%d.", w, s)
	if len(v) >= n {
		return v
	}
	return append(v, padding[:n-len(v)]...)
}

// keyName renders key index k as workload.Gen does.
func keyName(k uint32) string { return "key:" + strconv.FormatUint(uint64(k), 10) }

// keyIndex parses a workload.Gen key.
func keyIndex(key string) uint32 {
	n, _ := strconv.ParseUint(strings.TrimPrefix(key, "key:"), 10, 32)
	return uint32(n)
}

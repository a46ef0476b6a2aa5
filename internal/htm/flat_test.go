package htm

import (
	"math"
	"slices"
	"testing"

	"gotle/internal/abortsig"
	"gotle/internal/memseg"
	"gotle/internal/stats"
)

// A read-only attempt that a writer doomed during its last Load must not
// commit. The hook parks the reader between Load's final doom check and
// its memory read while a writer commits over both lines it reads; without
// the doom check on the read-only commit path the reader commits a=0, b=1.
func TestReadOnlyCommitChecksDoom(t *testing.T) {
	h, base := newHTM(t, Config{})
	a, b := base, base+memseg.WordsPerLine // distinct lines
	writer := h.NewTx(2)
	h.loadHook = func(at memseg.Addr) {
		if at != b {
			return
		}
		h.loadHook = nil
		run(writer, func(tx *Tx) {
			tx.Store(a, 1)
			tx.Store(b, 1)
		})
	}
	var ga, gb uint64
	cause, aborted := attempt(h.NewTx(1), func(tx *Tx) {
		ga = tx.Load(a)
		gb = tx.Load(b)
	})
	if !aborted || cause != stats.Conflict {
		t.Fatalf("read-only attempt committed a=%d b=%d over a concurrent writer (aborted=%v cause=%v)",
			ga, gb, aborted, cause)
	}
}

// A stores to line L, B's load dooms A and steals L, A stores to L again.
// Write-set membership lives in the line record, so L no longer reads as
// A's: A must abort instead of re-claiming L and dooming B. Store checks
// doom on entry, so the second case calls trackWriteLine directly: that is
// where a steal landing after the entry check meets A.
func TestStoreAfterStealAborts(t *testing.T) {
	for _, c := range []struct {
		name  string
		store func(tx *Tx, a memseg.Addr)
	}{
		{"Store", func(tx *Tx, a memseg.Addr) { tx.Store(a, 2) }},
		{"trackWriteLine", func(tx *Tx, a memseg.Addr) { tx.trackWriteLine(a.Line()) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			h, base := newHTM(t, Config{})
			a, b := h.NewTx(1), h.NewTx(2)
			a.Begin()
			a.Store(base, 1)
			b.Begin()
			if got := b.Load(base); got != 0 {
				t.Fatalf("thief read uncommitted %d", got)
			}
			cause, aborted := attempt2(a, func(tx *Tx) { c.store(tx, base) })
			if !aborted || cause != stats.Conflict {
				t.Fatalf("store after steal: aborted=%v cause=%v", aborted, cause)
			}
			if h.status[b.id].Load() == stDoomed {
				t.Fatal("the doomed attempt doomed the thread that stole its line")
			}
			if _, aborted := attempt2(b, func(*Tx) {}); aborted {
				t.Fatal("thief aborted")
			}
			if v := h.Memory().Load(base); v != 0 {
				t.Fatalf("doomed writer's value %d reached memory", v)
			}
		})
	}
}

// liveSlots counts index slots stamped with the current generation; every
// one must stand for exactly one log entry.
func liveSlots(tx *Tx) int {
	n := 0
	for _, s := range tx.index {
		if s.gen == tx.gen {
			n++
		}
	}
	return n
}

// Read-your-writes and last-store-wins hold across index growth, and the
// log holds each word once, so Commit flushes each word once.
func TestWriteLogGrowsAndFlushesOnce(t *testing.T) {
	h, base := newHTM(t, Config{})
	tx := h.NewTx(1)
	const words = 5 * initialIndex
	tx.Begin()
	for round := uint64(1); round <= 3; round++ {
		for i := 0; i < words; i++ {
			a := base + memseg.Addr(i)
			v := round*1000 + uint64(i)
			if i%2 == 0 {
				tx.Store(a, v)
			} else {
				tx.StoreRange(a, []uint64{v})
			}
			if got := tx.Load(a); got != v {
				t.Fatalf("round %d word %d: read %d after storing %d", round, i, got, v)
			}
		}
	}
	if len(tx.index) <= initialIndex {
		t.Fatalf("index never grew: %d slots for %d words", len(tx.index), words)
	}
	if len(tx.log) != words || liveSlots(tx) != words {
		t.Fatalf("log %d entries, %d live slots; want %d each", len(tx.log), liveSlots(tx), words)
	}
	seen := make([]bool, words)
	for _, e := range tx.log {
		i := int(e.addr - base)
		if seen[i] {
			t.Fatalf("word %d logged twice", i)
		}
		seen[i] = true
	}
	var got [words]uint64
	tx.LoadRange(base, got[:])
	for i, v := range got {
		if v != 3000+uint64(i) {
			t.Fatalf("LoadRange word %d = %d, want %d", i, v, 3000+i)
		}
	}
	if v := tx.Load(base + words); v != 0 {
		t.Fatalf("unwritten word read %d from the buffer", v)
	}
	tx.Commit()
	for i := 0; i < words; i++ {
		if v := h.Memory().Load(base + memseg.Addr(i)); v != 3000+uint64(i) {
			t.Fatalf("word %d = %d after commit, want %d", i, v, 3000+i)
		}
	}
}

// Discarding the buffer bumps the generation; when the stamp wraps, slots
// stamped a full cycle ago must not read as live again.
func TestWriteIndexGenerationWrap(t *testing.T) {
	h, base := newHTM(t, Config{})
	tx := h.NewTx(1)
	discard := func(fn func(*Tx)) {
		if _, aborted := attempt(tx, func(tx *Tx) {
			fn(tx)
			abortsig.Throw(stats.Explicit)
		}); !aborted {
			t.Fatal("explicit abort did not abort")
		}
	}
	// Stamp generations 1..3 with buffered words that are then discarded.
	var old []memseg.Addr
	for i := 0; i < 3; i++ {
		a := base + memseg.Addr(i)
		old = append(old, a)
		discard(func(tx *Tx) { tx.Store(a, 0xdead) })
	}
	tx.gen = math.MaxUint32 - 2
	for r := 0; r < 6; r++ { // generations MaxUint32-2 .. MaxUint32, then 1..3
		y := base + 100 + memseg.Addr(r)
		discard(func(tx *Tx) {
			tx.Store(y, 7)
			if n := liveSlots(tx); n != 1 {
				t.Fatalf("round %d (gen %d): %d live slots for one buffered word", r, tx.gen, n)
			}
			for _, a := range old {
				if v := tx.Load(a); v != 0 {
					t.Fatalf("round %d: discarded word %d read %#x", r, a-base, v)
				}
			}
			if v := tx.Load(y); v != 7 {
				t.Fatalf("round %d: read-own-write gave %d", r, v)
			}
		})
		old = append(old, y)
	}
	if tx.gen != 4 {
		t.Fatalf("gen = %d after the wrap, want 4", tx.gen)
	}
}

// Event aborts keep the per-access Bernoulli(p) law: over many independent
// streams the count lies within 4 sigma of the binomial mean. The streams
// are stepped with eventDue, the per-access draw Load and Store make
// (TestEventAbortsReplayBySeed ties the two), so the 9.6M accesses stay
// cheap under the race detector.
func TestEventAbortLaw(t *testing.T) {
	const ppm, seeds, threads, accesses = 2000, 2000, 16, 300
	h, _ := newHTM(t, Config{EventAbortPerMillion: ppm})
	events := 0
	for s := int64(1); s <= seeds; s++ {
		h.cfg.Seed = s
		for id := uint64(0); id < threads; id++ {
			tx := h.NewTx(id)
			for i := 0; i < accesses; i++ {
				if tx.eventDue() {
					events++
				}
			}
		}
	}
	n, p := float64(seeds*threads*accesses), float64(ppm)/1e6
	mean, sigma := n*p, math.Sqrt(n*p*(1-p))
	t.Logf("%d event aborts in %.0f accesses; binomial mean %.0f, sigma %.1f", events, n, mean, sigma)
	if math.Abs(float64(events)-mean) > 4*sigma {
		t.Fatalf("%d event aborts, want %.0f ± %.0f", events, mean, 4*sigma)
	}

	for _, c := range []struct {
		ppm  int
		want int
	}{{-1, 0}, {1_000_000, 1000}} {
		h, base := newHTM(t, Config{EventAbortPerMillion: c.ppm, Seed: 3})
		if got := len(eventPositions(h.NewTx(1), base, 1000)); got != c.want {
			t.Errorf("ppm %d: %d event aborts in 1000 accesses, want %d", c.ppm, got, c.want)
		}
	}
}

// eventPositions runs n single-word loads through tx, restarting after each
// abort, and returns the indices of the accesses that drew an event abort.
func eventPositions(tx *Tx, a memseg.Addr, n int) []int {
	var pos []int
	for i := 0; i < n; i++ {
		cause, aborted := attempt(tx, func(tx *Tx) {
			for ; i < n; i++ {
				_ = tx.Load(a)
			}
		})
		if aborted {
			if cause != stats.Event {
				panic("unexpected abort cause " + cause.String())
			}
			pos = append(pos, i)
		}
	}
	return pos
}

// The same seed and thread id replay the same event aborts; another seed
// draws others. Loads abort exactly where eventDue, stepped once per
// access, fires.
func TestEventAbortsReplayBySeed(t *testing.T) {
	const accesses = 5000
	streams := func(seed int64) [][]int {
		h, base := newHTM(t, Config{EventAbortPerMillion: 2000, Seed: seed})
		var out [][]int
		for id := uint64(0); id < 4; id++ {
			out = append(out, eventPositions(h.NewTx(id), base, accesses))
			var due []int
			tx := h.NewTx(id)
			for i := 0; i < accesses; i++ {
				if tx.eventDue() {
					due = append(due, i)
				}
			}
			if !slices.Equal(due, out[id]) {
				t.Fatalf("seed %d id %d: loads aborted at %v, eventDue fired at %v", seed, id, out[id], due)
			}
		}
		return out
	}
	same := func(x, y [][]int) bool { return slices.EqualFunc(x, y, slices.Equal) }
	first, again, other := streams(42), streams(42), streams(43)
	if len(first[0]) == 0 {
		t.Fatal("no event aborts in 5000 accesses at 2000 ppm")
	}
	if !same(first, again) {
		t.Fatalf("seed 42 replayed differently:\n%v\n%v", first, again)
	}
	if same(first, other) {
		t.Fatal("seeds 42 and 43 drew identical event aborts")
	}
	if same(first[:1], first[1:2]) {
		t.Fatal("thread ids 0 and 1 drew identical event aborts")
	}
}

// A warm descriptor runs a small read-write transaction without allocating.
func TestWarmCycleAllocatesNothing(t *testing.T) {
	h, base := newHTM(t, Config{})
	tx := h.NewTx(1)
	cycle := func() {
		tx.Begin()
		_ = tx.Load(base)
		_ = tx.Load(base + memseg.WordsPerLine)
		_ = tx.Load(base + 2*memseg.WordsPerLine)
		tx.Store(base+memseg.WordsPerLine+1, 1)
		tx.Store(base+memseg.WordsPerLine+2, 2)
		tx.Commit()
	}
	cycle()
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("warm Begin/3 loads/2 stores/Commit: %v allocs, want 0", n)
	}
}

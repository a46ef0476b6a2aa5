package htm

import (
	"sync"
	"testing"

	"gotle/internal/abortsig"
	"gotle/internal/memseg"
	"gotle/internal/spinwait"
	"gotle/internal/stats"
)

// run retries fn until it commits (tests only; the engine owns real policy).
func run(t *Tx, fn func(*Tx)) {
	var b spinwait.Backoff
	for {
		ok := func() (ok bool) {
			defer func() {
				if r := recover(); r != nil {
					if abortsig.From(r) != nil {
						t.OnAbort()
						ok = false
						return
					}
					panic(r)
				}
			}()
			t.Begin()
			fn(t)
			t.Commit()
			return true
		}()
		if ok {
			return
		}
		b.Wait()
	}
}

// attempt runs fn once, returning the abort cause or aborted=false.
func attempt(t *Tx, fn func(*Tx)) (cause stats.AbortCause, aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if sig := abortsig.From(r); sig != nil {
				t.OnAbort()
				cause, aborted = sig.Cause, true
				return
			}
			panic(r)
		}
	}()
	t.Begin()
	fn(t)
	t.Commit()
	return 0, false
}

// newHTM builds an HTM with event aborts disabled (deterministic tests).
func newHTM(tb testing.TB, cfg Config) (*HTM, memseg.Addr) {
	tb.Helper()
	if cfg.EventAbortPerMillion == 0 {
		cfg.EventAbortPerMillion = -1 // a negative rate never fires
	}
	mem := memseg.New(1 << 16)
	h := New(mem, cfg)
	base, ok := mem.Alloc(1024)
	if !ok {
		tb.Fatal("alloc failed")
	}
	return h, base
}

func TestCommitPublishes(t *testing.T) {
	h, base := newHTM(t, Config{})
	tx := h.NewTx(1)
	tx.Begin()
	tx.Store(base, 42)
	if h.Memory().Load(base) != 0 {
		t.Fatal("buffered write leaked to memory before commit")
	}
	if tx.Commit() {
		t.Fatal("writer flagged read-only")
	}
	if h.Memory().Load(base) != 42 {
		t.Fatal("committed write not visible")
	}
}

func TestReadOwnWrite(t *testing.T) {
	h, base := newHTM(t, Config{})
	tx := h.NewTx(1)
	run(tx, func(tx *Tx) {
		tx.Store(base, 7)
		if tx.Load(base) != 7 {
			t.Error("read-own-write failed")
		}
	})
}

func TestReadOnlyCommit(t *testing.T) {
	h, base := newHTM(t, Config{})
	tx := h.NewTx(1)
	tx.Begin()
	_ = tx.Load(base)
	if !tx.Commit() {
		t.Fatal("read-only commit not flagged")
	}
}

func TestAbortDiscardsBuffer(t *testing.T) {
	h, base := newHTM(t, Config{})
	tx := h.NewTx(1)
	attempt(tx, func(tx *Tx) {
		tx.Store(base, 99)
		abortsig.Throw(stats.Explicit)
	})
	if h.Memory().Load(base) != 0 {
		t.Fatal("aborted buffered write reached memory")
	}
	// Line claims must be released.
	tx2 := h.NewTx(2)
	if _, ab := attempt(tx2, func(tx *Tx) { tx.Store(base, 1) }); ab {
		t.Fatal("line still claimed after abort")
	}
}

// A writer dooms a concurrent reader of the same line (requester wins).
func TestWriterDoomsReader(t *testing.T) {
	h, base := newHTM(t, Config{})
	reader := h.NewTx(1)
	reader.Begin()
	_ = reader.Load(base)
	writer := h.NewTx(2)
	run(writer, func(tx *Tx) { tx.Store(base, 5) })
	cause, aborted := attempt2(reader, func(tx *Tx) { _ = tx.Load(base + 64) })
	if !aborted || cause != stats.Conflict {
		t.Fatalf("doomed reader: aborted=%v cause=%v", aborted, cause)
	}
}

// attempt2 continues an already-begun transaction.
func attempt2(t *Tx, fn func(*Tx)) (cause stats.AbortCause, aborted bool) {
	defer func() {
		if r := recover(); r != nil {
			if sig := abortsig.From(r); sig != nil {
				t.OnAbort()
				cause, aborted = sig.Cause, true
				return
			}
			panic(r)
		}
	}()
	fn(t)
	t.Commit()
	return 0, false
}

// A reader dooms a concurrent (active) writer of the same line.
func TestReaderDoomsWriter(t *testing.T) {
	h, base := newHTM(t, Config{})
	writer := h.NewTx(1)
	writer.Begin()
	writer.Store(base, 5)
	reader := h.NewTx(2)
	reader.Begin()
	if got := reader.Load(base); got != 0 {
		t.Fatalf("reader saw uncommitted value %d", got)
	}
	reader.Commit()
	cause, aborted := attempt2(writer, func(tx *Tx) { tx.Store(base+64, 1) })
	if !aborted || cause != stats.Conflict {
		t.Fatalf("doomed writer: aborted=%v cause=%v", aborted, cause)
	}
	if h.Memory().Load(base) != 0 {
		t.Fatal("doomed writer's buffer leaked")
	}
}

func TestWriteCapacityAbort(t *testing.T) {
	h, base := newHTM(t, Config{WriteCapacityLines: 4})
	tx := h.NewTx(1)
	cause, aborted := attempt(tx, func(tx *Tx) {
		for i := 0; i < 5; i++ {
			tx.Store(base+memseg.Addr(i*memseg.WordsPerLine), 1)
		}
	})
	if !aborted || cause != stats.Capacity {
		t.Fatalf("capacity: aborted=%v cause=%v", aborted, cause)
	}
}

func TestReadCapacityAbort(t *testing.T) {
	h, base := newHTM(t, Config{ReadCapacityLines: 4})
	tx := h.NewTx(1)
	cause, aborted := attempt(tx, func(tx *Tx) {
		for i := 0; i < 5; i++ {
			_ = tx.Load(base + memseg.Addr(i*memseg.WordsPerLine))
		}
	})
	if !aborted || cause != stats.Capacity {
		t.Fatalf("capacity: aborted=%v cause=%v", aborted, cause)
	}
}

func TestSameLineCountsOnce(t *testing.T) {
	h, base := newHTM(t, Config{WriteCapacityLines: 2})
	tx := h.NewTx(1)
	if _, aborted := attempt(tx, func(tx *Tx) {
		for i := memseg.Addr(0); i < 8; i++ {
			tx.Store(base+i, 1) // 8 words, one line
		}
	}); aborted {
		t.Fatal("writes within one line triggered capacity abort")
	}

	// Loading a line many times, word by word or by range, charges the
	// read capacity once.
	h, block := newHTM(t, Config{ReadCapacityLines: 2})
	base = (block + memseg.WordsPerLine - 1) &^ (memseg.WordsPerLine - 1) // line-aligned
	tx = h.NewTx(1)
	var buf [2 * memseg.WordsPerLine]uint64
	if _, aborted := attempt(tx, func(tx *Tx) {
		for i := 0; i < 50; i++ {
			_ = tx.Load(base + memseg.Addr(i%memseg.WordsPerLine))
			_ = tx.Load(base + memseg.WordsPerLine)
			tx.LoadRange(base, buf[:])
		}
	}); aborted {
		t.Fatal("re-reading two lines capacity-aborted")
	}
	cause, aborted := attempt(tx, func(tx *Tx) {
		tx.LoadRange(base, buf[:])
		_ = tx.Load(base + 2*memseg.WordsPerLine)
	})
	if !aborted || cause != stats.Capacity {
		t.Fatalf("third read line: aborted=%v cause=%v", aborted, cause)
	}
}

func TestEventAborts(t *testing.T) {
	h, base := newHTM(t, Config{EventAbortPerMillion: 1_000_000, Seed: 1})
	tx := h.NewTx(1)
	cause, aborted := attempt(tx, func(tx *Tx) { _ = tx.Load(base) })
	if !aborted || cause != stats.Event {
		t.Fatalf("event abort: aborted=%v cause=%v", aborted, cause)
	}
}

func TestDoomAll(t *testing.T) {
	h, base := newHTM(t, Config{})
	tx := h.NewTx(1)
	tx.Begin()
	_ = tx.Load(base)
	h.DoomAll(stats.Serial)
	cause, aborted := attempt2(tx, func(tx *Tx) { _ = tx.Load(base) })
	if !aborted || cause != stats.Serial {
		t.Fatalf("DoomAll: aborted=%v cause=%v", aborted, cause)
	}
}

func TestNontxStoreDoomsReader(t *testing.T) {
	h, base := newHTM(t, Config{})
	tx := h.NewTx(1)
	tx.Begin()
	_ = tx.Load(base)
	h.NontxStore(base, 123) // strong isolation: must doom the reader
	cause, aborted := attempt2(tx, func(tx *Tx) { _ = tx.Load(base) })
	if !aborted || cause != stats.Conflict {
		t.Fatalf("nontx store vs reader: aborted=%v cause=%v", aborted, cause)
	}
	if h.Memory().Load(base) != 123 {
		t.Fatal("nontx store lost")
	}
}

func TestNontxLoadDoomsWriter(t *testing.T) {
	h, base := newHTM(t, Config{})
	tx := h.NewTx(1)
	tx.Begin()
	tx.Store(base, 55)
	if got := h.NontxLoad(base); got != 0 {
		t.Fatalf("nontx load saw uncommitted value %d", got)
	}
	if _, aborted := attempt2(tx, func(tx *Tx) { tx.Store(base, 56) }); !aborted {
		t.Fatal("writer not doomed by nontx load")
	}
}

func TestNewTxRejectsBigID(t *testing.T) {
	h, _ := newHTM(t, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("NewTx(64) did not panic")
		}
	}()
	h.NewTx(MaxThreads)
}

func TestBeginOnLivePanics(t *testing.T) {
	h, _ := newHTM(t, Config{})
	tx := h.NewTx(1)
	tx.Begin()
	defer func() {
		if recover() == nil {
			t.Fatal("nested Begin did not panic")
		}
	}()
	tx.Begin()
}

func TestConcurrentIncrements(t *testing.T) {
	h, base := newHTM(t, Config{})
	const threads, per = 8, 2000
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		tx := h.NewTx(uint64(i))
		wg.Add(1)
		go func(tx *Tx) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				run(tx, func(tx *Tx) {
					tx.Store(base, tx.Load(base)+1)
				})
			}
		}(tx)
	}
	wg.Wait()
	if got := h.Memory().Load(base); got != threads*per {
		t.Fatalf("counter = %d, want %d", got, threads*per)
	}
}

func TestTwoWordInvariant(t *testing.T) {
	h, base := newHTM(t, Config{})
	x, y := base, base+128 // distinct lines
	run(h.NewTx(9), func(tx *Tx) {
		tx.Store(x, 1)
		tx.Store(y, 2)
	})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		tx := h.NewTx(uint64(i))
		wg.Add(1)
		go func(tx *Tx) {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				run(tx, func(tx *Tx) {
					v := tx.Load(x)
					tx.Store(x, v+1)
					tx.Store(y, 2*(v+1))
				})
			}
		}(tx)
	}
	for i := 3; i < 6; i++ {
		tx := h.NewTx(uint64(i))
		wg.Add(1)
		go func(tx *Tx) {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				var gx, gy uint64
				run(tx, func(tx *Tx) {
					gx = tx.Load(x)
					gy = tx.Load(y)
				})
				if gy != 2*gx {
					t.Errorf("invariant broken: x=%d y=%d", gx, gy)
					return
				}
			}
		}(tx)
	}
	wg.Wait()
}

func BenchmarkUncontendedRMW(b *testing.B) {
	h, base := newHTM(b, Config{})
	tx := h.NewTx(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(tx, func(tx *Tx) { tx.Store(base, tx.Load(base)+1) })
	}
}

// BenchmarkGetShape is the HTM footprint of a kvstore get: three read lines
// (bucket, item header, value) and a 2-word LRU bump.
func BenchmarkGetShape(b *testing.B) {
	h, base := newHTM(b, Config{})
	tx := h.NewTx(1)
	item := base + memseg.WordsPerLine
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(tx, func(tx *Tx) {
			_ = tx.Load(base)
			_ = tx.Load(item)
			_ = tx.Load(item + memseg.WordsPerLine)
			tx.Store(item+1, uint64(i))
			tx.Store(item+2, uint64(i))
		})
	}
}

// Package tmclock provides the global version clock and the ownership-record
// (orec) table shared by all STM transactions of one engine.
//
// The STM follows GCC libitm's ml_wt design, itself in the TinySTM/LSA
// family: a global version clock orders commits, and every heap word hashes
// to an orec whose value is either an unlock timestamp (the clock value at
// the owning writer's last commit) or a lock word naming the current writer.
// The clock is a single fetch-and-add counter — the paper attributes the
// two-thread performance dip in Figure 5 to exactly this kind of global
// counter traffic, so keeping it one contended word is a feature, not a bug.
package tmclock

import (
	"sync/atomic"
	"unsafe"

	"gotle/internal/memseg"
)

// Clock is the global version clock. The zero value starts at time 0.
type Clock struct {
	v atomic.Uint64
	_ [56]byte
}

// Read returns the current time without advancing it.
func (c *Clock) Read() uint64 { return c.v.Load() }

// Tick advances the clock and returns the new (commit) timestamp.
func (c *Clock) Tick() uint64 { return c.v.Add(1) }

// Orec encoding: the top bit distinguishes a lock word from a timestamp.
// A locked orec stores the owner's thread ID in the low bits; an unlocked
// orec stores the version (clock value) of the last commit that wrote any
// address mapping to it.
const lockBit uint64 = 1 << 63

// Locked reports whether an orec value is a lock word.
func Locked(v uint64) bool { return v&lockBit != 0 }

// Owner extracts the owning thread ID from a locked orec value.
func Owner(v uint64) uint64 { return v &^ lockBit }

// LockWord builds the orec value representing ownership by thread id.
func LockWord(id uint64) uint64 { return lockBit | id }

// Table maps heap addresses to orecs by masking. Its size is a power of two;
// distinct addresses may share an orec (a false conflict), exactly as in the
// real striped-lock STM.
//
// Layout audit: eight 8-byte orecs share a 64-byte cache line, so the flat
// stripe→slot mapping puts the orecs of eight *adjacent* stripes — the
// hottest neighbours in array- and struct-shaped workloads — on one line.
// Under parallel writers that false-shares, and the interleaved mapping
// (stripe s → slot rotl(s, orecsPerLineLog2), a bijection that provably
// separates neighbours — see TestInterleaveSeparatesNeighbors) removes it.
// But the same scatter destroys single-thread locality: a traversal that
// touched one orec line per eight stripes now touches eight, and on this
// project's reference host that costs ~25% on the read-heavy Fig. 5
// structures while the false-sharing win cannot materialize (one scheduling
// core). The default is therefore the flat layout. The interleaved mapping
// is deliberately NOT a Table mode: a layout flag would put a branch in
// Index, which every transactional load and store pays (measured ~4% on
// Fig. 5 tree) — instead InterleavedSlot exposes the permutation on its own
// and BenchmarkOrecNeighborTraffic applies it at setup time, documenting the
// trade on whatever host runs it. Padding each orec to a full line was
// rejected outright: it multiplies the table's footprint eightfold for the
// same separation.
type Table struct {
	//gotle:allow falseshare the in-file layout audit above rejected per-orec padding by measurement (8x footprint for the same separation); stripeShift and InterleavedSlot are the mitigation
	recs []atomic.Uint64
	mask uint32
	// stripeShift groups 1<<stripeShift consecutive words per orec before
	// hashing; 0 means per-word orecs.
	stripeShift uint32
}

// orecsPerLineLog2: 8-byte orecs on 64-byte cache lines.
const orecsPerLineLog2 = 3

// NewTable returns an orec table with 1<<sizeLog2 entries and the given
// stripe granularity (words per stripe = 1<<stripeShift), using the flat
// layout (see the layout audit in the Table doc). The orecs live off the
// Go heap and are released when the Table is garbage collected
// (memseg.OffHeap; the race detector build keeps them on the Go heap).
func NewTable(sizeLog2, stripeShift int) *Table {
	if sizeLog2 < 4 {
		sizeLog2 = 4
	}
	if sizeLog2 > 26 {
		sizeLog2 = 26
	}
	if stripeShift < 0 {
		stripeShift = 0
	}
	t := &Table{
		mask:        uint32(1<<sizeLog2 - 1),
		stripeShift: uint32(stripeShift),
	}
	t.recs = memseg.OffHeap[atomic.Uint64](t, 1<<sizeLog2)
	return t
}

// InterleavedSlot is the cache-line-interleaving permutation from the layout
// audit: it maps flat slot s of a 1<<sizeLog2-entry table to
// rotl(s, orecsPerLineLog2), placing neighbouring stripes on different
// cache lines. It is a bijection on [0, 1<<sizeLog2) and requires
// sizeLog2 >= orecsPerLineLog2 (a table smaller than one cache line has no
// neighbours to separate; the rotation degenerates and collides). NewTable
// never builds such a table, so the precondition is enforced with a panic.
// The audit's tests and BenchmarkOrecNeighborTraffic compose it with Index
// at setup time; the hot lookup path stays branch-free (see the Table doc).
func InterleavedSlot(s uint32, sizeLog2 int) uint32 {
	if sizeLog2 < orecsPerLineLog2 {
		panic("tmclock: InterleavedSlot requires sizeLog2 >= 3 (one cache line of orecs)")
	}
	mask := uint32(1<<sizeLog2 - 1)
	return ((s << orecsPerLineLog2) | (s >> (uint(sizeLog2) - orecsPerLineLog2))) & mask
}

// Len reports the number of orecs.
func (t *Table) Len() int { return len(t.recs) }

// StripeShift reports the configured stripe shift: 1<<StripeShift
// consecutive words share an orec. Range operations use it to walk a span
// one stripe at a time.
func (t *Table) StripeShift() uint32 { return t.stripeShift }

// Index returns the orec slot for an address (exported for tests and for
// the HTM simulator's line mapping comparisons).
func (t *Table) Index(a memseg.Addr) uint32 {
	return (uint32(a) >> t.stripeShift) & t.mask
}

// For returns the orec guarding address a.
func (t *Table) For(a memseg.Addr) *atomic.Uint64 {
	return &t.recs[t.Index(a)]
}

// At returns orec i directly.
func (t *Table) At(i uint32) *atomic.Uint64 { return &t.recs[i&t.mask] }

// SlotOf inverts For/At: the slot index of an orec pointer from this table.
// The STM's read-set compaction uses it to key deduplication by orec
// identity without widening the hot-path read-set entries.
func (t *Table) SlotOf(o *atomic.Uint64) uint32 {
	base := uintptr(unsafe.Pointer(unsafe.SliceData(t.recs)))
	return uint32((uintptr(unsafe.Pointer(o)) - base) / unsafe.Sizeof(atomic.Uint64{}))
}

// Package htm simulates a best-effort hardware transactional memory in the
// style of Intel TSX, which the paper's HTM results use via GCC's hardware
// path.
//
// The simulation preserves the properties the paper depends on:
//
//   - Low per-access latency: no version clock, no validation loops; an
//     access touches one line record and (for writes) a small buffer. The
//     descriptor keeps no maps: read/write set membership is the thread's
//     bit or id in the shared line record, and buffered writes are an
//     ordered log with a generation-stamped index, so Begin, Commit and
//     abort cost O(lines touched), not a hash per access.
//   - Eager, cache-line-granular conflict detection: an access that
//     conflicts with another transaction's line dooms that transaction,
//     mirroring how a coherence request aborts the TSX transaction holding
//     the line ("requester wins"); a transaction that has begun committing
//     cannot be doomed ("committing wins"), so the requester aborts instead.
//   - Capacity aborts: the write set is bounded by an L1-sized line budget
//     and the read set by an L2-sized budget. "Hardware transactions cannot
//     access more data than fits in the cache" (Section II.A).
//   - Event aborts: a seeded per-access probability models interrupts and
//     other transient causes that make best-effort HTM fail independently of
//     data conflicts. Each descriptor counts down a geometric gap drawn once
//     per event, which is the same per-access Bernoulli law without a random
//     draw on every access.
//   - Strong isolation: non-transactional accesses participate in conflict
//     detection and doom conflicting transactions, which is why HTM needs no
//     quiescence (Section IV: "In HTM, such accesses are not possible").
//
// Writes are buffered (lazy versioning, like TSX's L1 write buffering) and
// flushed at commit; doomed transactions may observe inconsistent values
// but can never commit them, read-only ones included, so committed
// transactions are serializable.
//
// Retry policy and the serial fallback lock live in the engine (package tm).
package htm

import (
	"fmt"
	"math"
	"sync/atomic"

	"gotle/internal/abortsig"
	"gotle/internal/chaos"
	"gotle/internal/memseg"
	"gotle/internal/spinwait"
	"gotle/internal/stats"
)

// MaxThreads bounds concurrent hardware transactions; reader sets are
// per-line 64-bit thread bitmasks.
const MaxThreads = 64

// Transaction status values (per thread, in shared state so attackers can
// doom victims).
const (
	stInactive uint32 = iota
	stActive
	stCommitting
	stDoomed
)

// Config holds HTM construction parameters. Zero values select defaults.
type Config struct {
	// WriteCapacityLines bounds the write set; default 512 lines
	// (a 32 KB, 64 B/line L1).
	WriteCapacityLines int
	// ReadCapacityLines bounds the read set; default 4096 lines
	// (a 256 KB L2 tracking read sets, as on Haswell).
	ReadCapacityLines int
	// Associativity, when positive, additionally models the write buffer
	// as a set-associative cache: writes are tracked per cache set
	// (line index modulo WriteCapacityLines/Associativity sets) and a
	// transaction aborts when a set overflows its ways — the reason real
	// TSX transactions can capacity-abort far below the total L1 size
	// when their write set aliases. 0 disables the set model (flat cap).
	Associativity int
	// EventAbortPerMillion is the per-access probability (×1e-6) of a
	// transient abort (interrupt, TLB miss...). Default 5.
	EventAbortPerMillion int
	// Seed seeds the per-transaction event RNGs.
	Seed int64
	// Injector, when non-nil, is consulted at the chaos fault points
	// (forced conflict aborts on loads, forced capacity aborts on stores).
	// Unlike EventAbortPerMillion's per-descriptor RNG, injector decisions
	// are deterministic per (seed, thread, access index) and replayable by
	// seed. Nil disables injection.
	Injector *chaos.Injector
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.WriteCapacityLines == 0 {
		out.WriteCapacityLines = 512
	}
	if out.ReadCapacityLines == 0 {
		out.ReadCapacityLines = 4096
	}
	if out.EventAbortPerMillion == 0 {
		out.EventAbortPerMillion = 5
	}
	return out
}

// numSets returns the number of cache sets under the associative model,
// or 0 when the model is disabled.
func (c Config) numSets() int {
	if c.Associativity <= 0 {
		return 0
	}
	sets := c.WriteCapacityLines / c.Associativity
	if sets < 1 {
		sets = 1
	}
	return sets
}

// lineRec tracks conflict state for one 64-byte line. readers is a bitmask
// of thread ids with the line in their read set; writer is id+1 of the
// transaction with the line in its write set, or 0.
//
// The simulator MODELS cache lines: lineRec density mirrors the modeled
// line table, and padding it would distort what the model measures.
//
//gotle:allow falseshare the simulator models cache-line conflict state; density is the model, not an accident
type lineRec struct {
	readers atomic.Uint64
	writer  atomic.Uint32
}

// HTM is the shared state of one simulated HTM instance.
type HTM struct {
	mem *memseg.Memory
	//gotle:allow falseshare the simulator models cache-line conflict state; density is the model, not an accident
	lines []lineRec
	//gotle:allow falseshare per-thread status words are written once per attempt, read by the owner; contention is negligible in the simulator
	status [MaxThreads]atomic.Uint32
	//gotle:allow falseshare per-thread status words are written once per attempt, read by the owner; contention is negligible in the simulator
	cause [MaxThreads]atomic.Uint32 // abort cause set by the attacker
	cfg   Config
	// loadHook, when set, runs in Load between the last doom check and the
	// memory read. Tests park a reader there while a writer commits over
	// its read set (TestReadOnlyCommitChecksDoom). Set before the HTM is
	// shared; nil costs one branch per Load.
	loadHook func(memseg.Addr)
}

// New creates an HTM simulator over the given heap. Its line table, one
// record per line of the heap, lives off the Go heap like the heap itself
// and is released when the HTM is garbage collected (memseg.OffHeap; the
// race detector build keeps it on the Go heap).
func New(mem *memseg.Memory, cfg Config) *HTM {
	h := &HTM{
		mem: mem,
		cfg: cfg.withDefaults(),
	}
	h.lines = memseg.OffHeap[lineRec](h, mem.Size()/memseg.WordsPerLine+1)
	return h
}

// Memory returns the heap this HTM operates on.
func (h *HTM) Memory() *memseg.Memory { return h.mem }

// Tx is a per-thread hardware transaction descriptor, reused across
// attempts. Not safe for concurrent use.
//
// The descriptor keeps no maps. Set membership is read from the shared
// line records, which is where the conflict protocol needs it anyway: a
// line is in the read set when our bit is in its readers mask and in the
// write set when its writer is id+1. Only the owner sets those fields and
// only the owner's release clears them (a conflicting access may steal a
// write claim, but only after dooming the owner). readLines and
// writeLines list the lines in the order they were taken, for capacity
// accounting and release.
type Tx struct {
	h    *HTM
	id   uint32
	bit  uint64
	live bool

	readLines  []uint32
	writeLines []uint32

	// The write buffer: an ordered log of buffered words, each address
	// once, and an open-addressing index over it. An index slot is live
	// only when its stamp equals gen, so discarding the buffer is one
	// increment of gen.
	log   []logEntry
	index []indexSlot // power-of-two length, at most half full
	shift uint8       // 32 - log2(len(index))
	gen   uint32      // never 0: a fresh slot's stamp

	// setOccupancy counts distinct write lines per cache set under the
	// associative model (nil when disabled).
	setOccupancy []uint8

	// untilEvent counts accesses down to the next event abort; rng is the
	// splitmix64 state the gaps are drawn from.
	untilEvent int64
	rng        uint64
}

type logEntry struct {
	addr memseg.Addr
	val  uint64
}

type indexSlot struct {
	gen uint32 // live when equal to Tx.gen
	pos uint32 // position in Tx.log
}

// initialIndex is the write index's starting size: 8 buffered words before
// it first doubles.
const (
	initialIndexBits = 4
	initialIndex     = 1 << initialIndexBits
)

// NewTx returns a descriptor for thread id (must be < MaxThreads).
func (h *HTM) NewTx(id uint64) *Tx {
	if id >= MaxThreads {
		panic(fmt.Sprintf("htm: thread id %d exceeds MaxThreads %d", id, MaxThreads))
	}
	t := &Tx{
		h:          h,
		id:         uint32(id),
		bit:        1 << id,
		readLines:  make([]uint32, 0, 16),
		writeLines: make([]uint32, 0, 8),
		log:        make([]logEntry, 0, initialIndex/2),
		index:      make([]indexSlot, initialIndex),
		shift:      32 - initialIndexBits,
		gen:        1,
		rng:        uint64(h.cfg.Seed) ^ (id+1)*0xD1B54A32D192ED03,
	}
	if sets := h.cfg.numSets(); sets > 0 {
		t.setOccupancy = make([]uint8, sets)
	}
	t.untilEvent = t.eventGap()
	return t
}

// Begin starts an attempt.
func (t *Tx) Begin() {
	if t.live {
		panic("htm: Begin on live transaction")
	}
	if !t.h.status[t.id].CompareAndSwap(stInactive, stActive) {
		// A stale doom can linger if an attacker doomed us between cleanup
		// and now; reset unconditionally.
		t.h.status[t.id].Store(stActive)
	}
	t.live = true
}

// Live reports whether an attempt is in progress.
func (t *Tx) Live() bool { return t.live }

// ReadOnly reports whether the attempt has performed no writes.
func (t *Tx) ReadOnly() bool { return len(t.log) == 0 }

func (t *Tx) abort(cause stats.AbortCause) {
	abortsig.Throw(cause)
}

// checkDoom aborts the attempt if an attacker doomed it.
func (t *Tx) checkDoom() {
	if t.h.status[t.id].Load() == stDoomed {
		cause := stats.AbortCause(t.h.cause[t.id].Load())
		t.abort(cause)
	}
}

// maybeEvent counts one access towards the next transient abort.
func (t *Tx) maybeEvent() {
	if t.eventDue() {
		t.abort(stats.Event)
	}
}

// eventDue reports whether this access draws an event abort, and if so
// draws the gap to the next one.
func (t *Tx) eventDue() bool {
	t.untilEvent--
	if t.untilEvent > 0 {
		return false
	}
	t.untilEvent = t.eventGap()
	return true
}

// eventGap draws the number of accesses up to and including the next event
// abort. With p = EventAbortPerMillion/1e6 it is geometric on {1, 2, ...}:
// the law of the first success in independent per-access Bernoulli(p)
// trials, so drawing once per event instead of rolling on every access
// leaves the abort process unchanged.
func (t *Tx) eventGap() int64 {
	ppm := t.h.cfg.EventAbortPerMillion
	switch {
	case ppm <= 0:
		return math.MaxInt64 // never fires
	case ppm >= 1_000_000:
		return 1 // every access fires
	}
	// Inverse transform: u uniform on (0, 1], gap = 1 + floor(ln u / ln(1-p)).
	u := float64(t.rand64()>>11+1) / (1 << 53)
	g := math.Floor(math.Log(u)/math.Log1p(-float64(ppm)/1e6)) + 1
	if g >= 1<<62 {
		return 1 << 62
	}
	return int64(g)
}

// rand64 is splitmix64: one add and three xor-multiply mixes, enough for
// the few draws event aborts need and free of allocation.
func (t *Tx) rand64() uint64 {
	t.rng += 0x9E3779B97F4A7C15
	z := t.rng
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// doom tries to abort the transaction with the given id (caller has observed
// a conflict with it). It reports false when the victim is committing and
// thus cannot be doomed — the caller must abort itself.
func (h *HTM) doom(victim uint32, cause stats.AbortCause) bool {
	for {
		s := h.status[victim].Load()
		switch s {
		case stActive:
			h.cause[victim].Store(uint32(cause))
			if h.status[victim].CompareAndSwap(stActive, stDoomed) {
				return true
			}
		case stCommitting:
			return false
		default: // inactive or already doomed: nothing to do
			return true
		}
	}
}

// DoomAll dooms every active transaction. The engine calls this when a
// thread acquires the serial fallback lock: on real hardware the lock
// acquisition writes a word in every transaction's read set, aborting them
// all at once.
func (h *HTM) DoomAll(cause stats.AbortCause) {
	for id := uint32(0); id < MaxThreads; id++ {
		h.doom(id, cause)
	}
}

// Load performs a transactional read of the word at a.
func (t *Tx) Load(a memseg.Addr) uint64 {
	t.checkDoom()
	t.maybeEvent()
	if t.h.cfg.Injector.Fire(uint64(t.id), chaos.HTMConflict) {
		// Injected coherence conflict: another core's request took our line.
		t.abort(stats.Conflict)
	}
	if pos := t.find(a); pos >= 0 {
		return t.log[pos].val
	}
	t.trackReadLine(a.Line())
	t.checkDoom()
	if t.h.loadHook != nil {
		t.h.loadHook(a)
	}
	return t.h.mem.Load(a)
}

// trackReadLine registers a line in the read set, resolving conflicts with
// concurrent writers. A no-op when the line is already tracked.
func (t *Tx) trackReadLine(line uint32) {
	rec := &t.h.lines[line]
	if rec.readers.Load()&t.bit != 0 {
		return
	}
	if len(t.readLines) >= t.h.cfg.ReadCapacityLines {
		t.abort(stats.Capacity)
	}
	// Record the line before touching the shared record so that an
	// abort anywhere below still releases the reader bit in OnAbort
	// (clearing an unset bit is harmless).
	t.readLines = append(t.readLines, line)
	// Resolve against a concurrent writer, register, then re-check: the
	// re-check closes the race where a writer registers between our
	// check and our registration.
	for {
		if w := rec.writer.Load(); w != 0 && w != t.id+1 {
			if !t.h.doom(w-1, stats.Conflict) {
				t.abort(stats.Conflict) // writer is committing
			}
			// The victim is doomed and can never flush; revoke its
			// claim immediately (hardware aborts the victim instantly,
			// our victims abort lazily at their next access). The
			// victim's own cleanup uses a conditional release, so the
			// steal is safe.
			rec.writer.CompareAndSwap(w, 0)
			continue
		}
		rec.readers.Or(t.bit)
		if w := rec.writer.Load(); w != 0 && w != t.id+1 {
			rec.readers.And(^t.bit)
			continue
		}
		break
	}
}

// Store performs a transactional (buffered) write of the word at a.
func (t *Tx) Store(a memseg.Addr, v uint64) {
	t.checkDoom()
	t.maybeEvent()
	if t.h.cfg.Injector.Fire(uint64(t.id), chaos.HTMCapacity) {
		// Injected capacity abort: the write set overflowed early, as a
		// best-effort HTM is always allowed to decide.
		t.abort(stats.Capacity)
	}
	t.trackWriteLine(a.Line())
	t.buffer(a, v)
	t.checkDoom()
}

// trackWriteLine registers a line in the write set, charging the capacity
// model and claiming exclusive ownership. A no-op when already tracked.
func (t *Tx) trackWriteLine(line uint32) {
	if t.h.lines[line].writer.Load() == t.id+1 {
		return
	}
	// A line we claimed earlier in this attempt is no longer ours only if
	// a conflicting access doomed us and stole it. Abort now: re-claiming
	// would doom the thief on behalf of an attempt that cannot commit.
	t.checkDoom()
	if len(t.writeLines) >= t.h.cfg.WriteCapacityLines {
		t.abort(stats.Capacity)
	}
	if t.setOccupancy != nil {
		set := line % uint32(len(t.setOccupancy))
		if int(t.setOccupancy[set]) >= t.h.cfg.Associativity {
			t.abort(stats.Capacity) // set conflict: ways exhausted
		}
		t.setOccupancy[set]++
	}
	// Record before claiming: if claimLine aborts mid-way, OnAbort's
	// conditional release (CAS id+1 → 0) cleans up whatever was taken.
	t.writeLines = append(t.writeLines, line)
	t.claimLine(line)
}

// LoadRange reads the len(dst) consecutive words starting at a. Equivalent
// to dst[i] = Load(a+i), but the per-access overheads — doom check, event
// roll, chaos injection — are paid once per call (a range is one access to
// the simulated hardware) and line tracking is amortized over the run.
func (t *Tx) LoadRange(a memseg.Addr, dst []uint64) {
	t.checkDoom()
	t.maybeEvent()
	if t.h.cfg.Injector.Fire(uint64(t.id), chaos.HTMConflict) {
		// Injected coherence conflict: another core's request took our line.
		t.abort(stats.Conflict)
	}
	prev := int64(-1)
	for i := range dst {
		aa := a + memseg.Addr(i)
		if pos := t.find(aa); pos >= 0 {
			dst[i] = t.log[pos].val
			continue
		}
		if l := aa.Line(); int64(l) != prev {
			t.trackReadLine(l)
			prev = int64(l)
		}
		dst[i] = t.h.mem.Load(aa)
	}
	t.checkDoom()
}

// StoreRange buffers writes of the words of src to consecutive addresses
// starting at a. Equivalent to Store(a+i, src[i]) with the per-access
// overheads paid once per call; capacity is still charged per line.
func (t *Tx) StoreRange(a memseg.Addr, src []uint64) {
	t.checkDoom()
	t.maybeEvent()
	if t.h.cfg.Injector.Fire(uint64(t.id), chaos.HTMCapacity) {
		// Injected capacity abort: the write set overflowed early, as a
		// best-effort HTM is always allowed to decide.
		t.abort(stats.Capacity)
	}
	prev := int64(-1)
	for i, v := range src {
		aa := a + memseg.Addr(i)
		if l := aa.Line(); int64(l) != prev {
			t.trackWriteLine(l)
			prev = int64(l)
		}
		t.buffer(aa, v)
	}
	t.checkDoom()
}

// slot returns a's home slot in the write index.
func (t *Tx) slot(a memseg.Addr) uint32 {
	return uint32(a) * 0x9E3779B1 >> t.shift
}

// find returns the log position of a's buffered value, or -1.
func (t *Tx) find(a memseg.Addr) int {
	if len(t.log) == 0 {
		return -1
	}
	mask := uint32(len(t.index) - 1)
	for i := t.slot(a); ; i = (i + 1) & mask {
		s := t.index[i]
		if s.gen != t.gen {
			return -1
		}
		if t.log[s.pos].addr == a {
			return int(s.pos)
		}
	}
}

// buffer records v as a's buffered value: in place when a is already in the
// log (last store wins), appended otherwise.
func (t *Tx) buffer(a memseg.Addr, v uint64) {
	mask := uint32(len(t.index) - 1)
	i := t.slot(a)
	for ; t.index[i].gen == t.gen; i = (i + 1) & mask {
		if pos := t.index[i].pos; t.log[pos].addr == a {
			t.log[pos].val = v
			return
		}
	}
	t.index[i] = indexSlot{gen: t.gen, pos: uint32(len(t.log))}
	t.log = append(t.log, logEntry{addr: a, val: v})
	if 2*len(t.log) > len(t.index) {
		t.growIndex()
	}
}

// growIndex doubles the write index and re-inserts the log. The new slots'
// zero stamps are never live.
func (t *Tx) growIndex() {
	t.index = make([]indexSlot, 2*len(t.index))
	t.shift--
	mask := uint32(len(t.index) - 1)
	for pos, e := range t.log {
		i := t.slot(e.addr)
		for t.index[i].gen == t.gen {
			i = (i + 1) & mask
		}
		t.index[i] = indexSlot{gen: t.gen, pos: uint32(pos)}
	}
}

// claimLine takes exclusive write ownership of a line, dooming conflicting
// readers and writers.
func (t *Tx) claimLine(line uint32) {
	rec := &t.h.lines[line]
	// Evict a conflicting writer, stealing its claim once it is doomed.
	for {
		w := rec.writer.Load()
		if w == t.id+1 {
			break
		}
		if w != 0 {
			if !t.h.doom(w-1, stats.Conflict) {
				t.abort(stats.Conflict)
			}
			rec.writer.CompareAndSwap(w, t.id+1)
			continue
		}
		if rec.writer.CompareAndSwap(0, t.id+1) {
			break
		}
	}
	// Doom all other readers of the line.
	mask := rec.readers.Load() &^ t.bit
	for id := uint32(0); mask != 0 && id < MaxThreads; id++ {
		if mask&(1<<id) != 0 {
			if !t.h.doom(id, stats.Conflict) {
				t.abort(stats.Conflict)
			}
			mask &^= 1 << id
		}
	}
}

// Commit atomically publishes the write buffer. Returns true when the
// transaction was read-only.
func (t *Tx) Commit() (readOnly bool) {
	if !t.live {
		panic("htm: Commit without Begin")
	}
	if len(t.log) == 0 {
		// A read-only attempt commits at this check: a writer that
		// changed a line we read, even during our last Load, doomed us.
		t.checkDoom()
		t.release()
		return true
	}
	if !t.h.status[t.id].CompareAndSwap(stActive, stCommitting) {
		t.abort(stats.AbortCause(t.h.cause[t.id].Load()))
	}
	// From here we cannot be doomed; flush the log in order. Readers that
	// raced with us were doomed when we claimed their lines.
	for _, e := range t.log {
		t.h.mem.Store(e.addr, e.val)
	}
	t.release()
	return false
}

// OnAbort discards the write buffer and releases line claims. The engine
// calls this from its recover handler.
func (t *Tx) OnAbort() { t.release() }

// release ends the attempt: it drops the line claims, resets status and
// empties the read set, write set and write buffer.
func (t *Tx) release() {
	for _, line := range t.writeLines {
		t.h.lines[line].writer.CompareAndSwap(t.id+1, 0)
	}
	for _, line := range t.readLines {
		t.h.lines[line].readers.And(^t.bit)
	}
	t.h.status[t.id].Store(stInactive)
	t.readLines = t.readLines[:0]
	if len(t.writeLines) > 0 {
		t.writeLines = t.writeLines[:0]
		clear(t.setOccupancy)
	}
	if len(t.log) > 0 {
		t.log = t.log[:0]
		if t.gen++; t.gen == 0 {
			// Wrapped: slots stamped one cycle ago would read as live.
			clear(t.index)
			t.gen = 1
		}
	}
	t.live = false
}

// InvalidateBlock dooms every transaction with any line of the block
// [a, a+words) in its read or write set. The engine calls this before
// returning a block to the allocator: on hardware, the recycled lines would
// be invalidated by the next owner's writes, aborting stale readers — which
// is why HTM needs no pre-free quiescence.
func (h *HTM) InvalidateBlock(a memseg.Addr, words int) {
	first := a.Line()
	last := (a + memseg.Addr(words) - 1).Line()
	for line := first; line <= last; line++ {
		rec := &h.lines[line]
		if w := rec.writer.Load(); w != 0 {
			if h.doom(w-1, stats.Conflict) {
				rec.writer.CompareAndSwap(w, 0)
			}
		}
		mask := rec.readers.Load()
		for id := uint32(0); mask != 0 && id < MaxThreads; id++ {
			if mask&(1<<id) != 0 {
				h.doom(id, stats.Conflict)
				mask &^= 1 << id
			}
		}
	}
}

// NontxLoad is a strongly isolated non-transactional read: it dooms any
// transaction writing the line, then reads committed memory.
func (h *HTM) NontxLoad(a memseg.Addr) uint64 {
	rec := &h.lines[a.Line()]
	var b spinwait.Backoff
	for {
		w := rec.writer.Load()
		if w == 0 {
			break
		}
		if h.doom(w-1, stats.Conflict) {
			rec.writer.CompareAndSwap(w, 0)
			break
		}
		// Writer is committing: its flush is running on a live goroutine
		// and bounded, so wait it out.
		b.Wait()
	}
	v := h.mem.Load(a)
	// A writer may have claimed the line between the check and the read; on
	// hardware our read would invalidate its line, so doom it (best effort:
	// if it already reached Committing its flush wins and our caller sees
	// either value, both of which are legal outcomes of the race).
	if w := rec.writer.Load(); w != 0 {
		h.doom(w-1, stats.Conflict)
	}
	return v
}

// NontxStore is a strongly isolated non-transactional write: it dooms any
// transaction reading or writing the line, then writes memory.
func (h *HTM) NontxStore(a memseg.Addr, v uint64) {
	rec := &h.lines[a.Line()]
	var b spinwait.Backoff
	for {
		w := rec.writer.Load()
		if w == 0 {
			break
		}
		if h.doom(w-1, stats.Conflict) {
			rec.writer.CompareAndSwap(w, 0)
			break
		}
		b.Wait()
	}
	mask := rec.readers.Load()
	for id := uint32(0); mask != 0 && id < MaxThreads; id++ {
		if mask&(1<<id) != 0 {
			// Readers that are committing are read-only on this line’s
			// value flow; their commit does not depend on future values,
			// so it is safe to proceed without dooming them.
			h.doom(id, stats.Conflict)
			mask &^= 1 << id
		}
	}
	h.mem.Store(a, v)
	// Doom any transaction that claimed the line while we were writing, so
	// its buffered value cannot silently overwrite ours at flush time.
	if w := rec.writer.Load(); w != 0 {
		h.doom(w-1, stats.Conflict)
	}
}

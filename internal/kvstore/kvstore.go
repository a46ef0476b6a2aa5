// Package kvstore is a memcached-style in-memory cache built on the lock-
// elision layer: a sharded hash table with per-shard LRU eviction,
// statistics counters, CAS tokens and the memcached storage verbs.
//
// The paper repeatedly leans on the authors' earlier transactional
// memcached port (Sections V and VI): critical sections there obeyed
// two-phase locking, atomic statistics counters had to be folded into
// transactions, and log output had to be deferred. This package recreates
// that workload shape on this repository's TM stack:
//
//   - each shard's operations are one critical section (per-shard elidable
//     mutex), with lookup, LRU maintenance, statistics and eviction inside;
//   - statistics counters are per-shard words updated inside the shard's
//     own transaction — the memcached "mini-transaction" treatment of its
//     C++ atomics. They are deliberately NOT behind a shared lock: the
//     adaptive controller may run neighbouring shards on different TM
//     mechanisms (HTM vs STM), which is sound only while no word is
//     reachable from two differently-policied critical sections;
//   - eviction, deletion and replace privatize item memory, so the
//     quiescence machinery (and the Listing-2 NoQuiesce discipline) is
//     exercised by every miss-heavy workload;
//   - every stored item carries a CAS token (per-shard sequence) and a
//     32-bit flags word, so the server layer can speak the full memcached
//     text protocol (gets/cas) without auxiliary maps.
//
// Keys and values are byte strings packed into heap words. All operations
// are 2PL-clean (verified by test against lockcheck) and therefore
// elidable under every policy.
package kvstore

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"gotle/internal/condvar"
	"gotle/internal/memseg"
	"gotle/internal/tle"
	"gotle/internal/tm"
	"gotle/internal/wal"
)

// Item block layout (word offsets).
const (
	itMeta  = 0 // keyLen<<32 | valLen
	itChain = 1 // next item in bucket chain
	itPrev  = 2 // LRU: towards most-recent
	itNext  = 3 // LRU: towards least-recent
	itCas   = 4 // compare-and-swap token (per-shard sequence, never 0)
	itFlags = 5 // client-opaque 32-bit flags (memcached "flags" field)
	itData  = 6 // key bytes, then value bytes, word-packed
)

// Shard block layout. The statistics words live inside the shard block so
// every counter is guarded by exactly one mutex — a precondition for
// running shards on different TM mechanisms (see the package comment).
// The shard's hash index, one chain-head word per bucket, is a block of
// its own (shard.index), so it can grow to memseg.MaxAlloc buckets and
// costs exactly one word per bucket.
const (
	shCount   = 0
	shLRUHead = 1 // most recently used
	shLRUTail = 2 // least recently used
	shCasSeq  = 3 // CAS token sequence
	shWalSeq  = 4 // WAL commit sequence (drawn inside mutating transactions)
	shStats   = 5 // stWords counters
	shWords   = shStats + stWords
)

// Per-shard stats word indices (relative to sh.base+shStats).
const (
	stGets = iota
	stHits
	stSets
	stDeletes
	stEvictions
	stWords
)

// MaxKeyLen and MaxValLen bound entry sizes.
const (
	MaxKeyLen = 250 // memcached's limit
	MaxValLen = 8192
)

// Config parameterises a Store.
type Config struct {
	// Shards is rounded up to a power of two (default 8).
	Shards int
	// BucketsPerShard sizes each shard's hash index. It is rounded up to
	// a power of two and clamped to memseg.MaxAlloc, the largest block.
	// The default is MaxItemsPerShard, so a full shard averages at most
	// one item per bucket chain and a get walks O(1) items. The index
	// costs one simulated-heap word (8 B) per bucket.
	BucketsPerShard int
	// MaxItemsPerShard triggers LRU eviction (default 1024).
	MaxItemsPerShard int
}

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 8
	}
	if c.MaxItemsPerShard < 1 {
		c.MaxItemsPerShard = 1024
	}
	if c.BucketsPerShard < 1 {
		c.BucketsPerShard = c.MaxItemsPerShard
	}
	return c
}

// Store is the cache.
type Store struct {
	r      *tle.Runtime
	cfg    Config
	shards []shard
	// wal, when attached, receives a redo record for every committed
	// mutation. Nil means no durability (the default).
	wal *wal.Log
	// tap, when attached, observes the same commit-sequenced record
	// stream the WAL frames (replication). Nil means no streaming.
	tap CommitTap
	// notFull supports blocking Set when a shard is saturated with
	// in-flight evictions (not used by default paths; exposed for apps).
	notFull *condvar.Cond
}

type shard struct {
	mu    *tle.Mutex
	base  memseg.Addr // shWords header words
	index memseg.Addr // mask+1 bucket chain heads
	mask  uint64
}

// bucket returns the index word heading h's chain. It takes the top 24
// bits of the hash, which are disjoint from the low bits that pick the
// shard and are the best mixed: fnv1a's last multiply, by 2^40 + 0x1b3,
// adds the low 24 bits of the state into them, while bits 32-39 get only
// the small 0x1b3 term and gave chains three times longer.
func (sh *shard) bucket(h uint64) memseg.Addr {
	return sh.index + memseg.Addr((h>>40)&sh.mask)
}

// New creates a store on the runtime's engine.
func New(r *tle.Runtime, cfg Config) *Store {
	cfg = cfg.withDefaults()
	nsh := ceilPow2(cfg.Shards)
	nbk := ceilPow2(min(cfg.BucketsPerShard, memseg.MaxAlloc))
	cfg.Shards, cfg.BucketsPerShard = nsh, nbk
	s := &Store{
		r:       r,
		cfg:     cfg,
		shards:  make([]shard, nsh),
		notFull: r.NewCond(),
	}
	for i := range s.shards {
		s.shards[i] = shard{
			mu:    r.NewMutex(fmt.Sprintf("kv-shard-%d", i)),
			base:  r.Engine().Alloc(shWords),
			index: r.Engine().Alloc(nbk),
			mask:  uint64(nbk - 1),
		}
	}
	return s
}

// ShardCount reports the (power-of-two rounded) number of shards.
func (s *Store) ShardCount() int { return len(s.shards) }

// ShardMutex returns the elidable mutex guarding shard i. The adaptive
// controller drives per-shard policy through these handles; each mutex
// guards only that shard's words, so neighbouring shards may run on
// different TM mechanisms.
func (s *Store) ShardMutex(i int) *tle.Mutex { return s.shards[i].mu }

// ShardMutexes returns all shard mutexes, index-aligned with shard ids.
func (s *Store) ShardMutexes() []*tle.Mutex {
	ms := make([]*tle.Mutex, len(s.shards))
	for i := range s.shards {
		ms[i] = s.shards[i].mu
	}
	return ms
}

// AttachWAL arms redo logging: every committed mutation from here on
// appends a wal.Record in the shard's serialization order. Call it after
// any recovery replay (replay runs through the normal mutators while wal
// is still nil, so recovered records are not re-logged) and before
// serving traffic. The per-shard sequence words are seeded from the log's
// recovered tail so fresh records continue the contiguous sequence.
func (s *Store) AttachWAL(l *wal.Log) error {
	if l.Shards() != len(s.shards) {
		return fmt.Errorf("kvstore: WAL has %d shards, store has %d (records are routed by key hash, so the counts must match)", l.Shards(), len(s.shards))
	}
	e := s.r.Engine()
	for i := range s.shards {
		e.Store(s.shards[i].base+shWalSeq, l.LastSeq(i))
	}
	// Attach-before-serving contract: AttachWAL runs during startup,
	// before any goroutine executes transactions against the store, so
	// this raw store cannot race the transactional s.wal readers on the
	// commit path (walPublish and friends only exist once serving starts).
	//gotle:allow mixedaccess attach-before-serving; no concurrent transactions yet
	s.wal = l
	return nil
}

// CommitTap observes the commit-sequenced record stream — the same
// logical records the WAL frames to disk, in the same per-shard order,
// delivered post-commit from the same deferred actions. repl.Source
// implements it to tee the stream to follower replicas.
//
// Publish and PublishBatch are called concurrently from executor
// goroutines and may see records out of sequence order (deferred actions
// interleave); implementations reorder by Seq, exactly like the WAL.
// Record Key/Val alias buffers the caller recycles after the call
// returns, so implementations must copy (or encode) before returning.
type CommitTap interface {
	// Publish delivers one committed record for shard.
	Publish(shard int, rec wal.Record)
	// PublishBatch delivers one committed fused batch's records for
	// shard, in ascending Seq order.
	PublishBatch(shard int, recs []wal.Record)
}

// AttachTap arms commit-stream replication: every committed mutation from
// here on is also published to t, carrying the same per-shard sequence
// numbers the WAL would frame. Call it during startup — after any
// recovery replay and AttachWAL, before serving traffic. The tap does not
// seed the per-shard sequence words; AttachWAL does (or they start at
// zero on a WAL-less primary), and the tap's own base cursor must match
// (repl.NewSource takes the same recovered tail).
func (s *Store) AttachTap(t CommitTap) {
	// Attach-before-serving contract, as for AttachWAL: no goroutine runs
	// transactions against the store yet, so this raw store cannot race
	// the transactional s.tap readers on the commit path.
	//gotle:allow mixedaccess attach-before-serving; no concurrent transactions yet
	s.tap = t
}

// walPublish is the commit-pipeline tap. It draws the shard's next commit
// sequence number inside tx — so the number rolls back with the attempt
// and the log order equals the shard's serialization order — and defers
// the actual append to post-commit, the sanctioned channel for
// irrevocable effects. The Ticket lands in *out only if the transaction
// commits; callers wait on it AFTER the critical section, keeping the
// fsync out of the transaction.
func (s *Store) walPublish(tx tm.Tx, sh *shard, shardIdx int, op wal.Op, flags uint32, key, val []byte, out *wal.Ticket) {
	if s.wal == nil && s.tap == nil {
		return
	}
	seq := tx.Load(sh.base+shWalSeq) + 1
	tx.Store(sh.base+shWalSeq, seq)
	rec := wal.Record{Seq: seq, Op: op, Flags: flags, Key: key, Val: val}
	l, t := s.wal, s.tap
	tx.Defer(func() {
		// Tap before WAL: the tap encodes (copies) rec's bytes, the WAL
		// append may hand them to the syncer — either order is correct,
		// but tap-first keeps replication latency off the fsync path.
		if t != nil {
			t.Publish(shardIdx, rec)
		}
		if l != nil {
			*out = l.Append(shardIdx, rec)
		}
	})
}

func ceilPow2(v int) int {
	n := 1
	for n < v {
		n *= 2
	}
	return n
}

// fnv1a hashes a key.
func fnv1a(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func (s *Store) shardFor(h uint64) *shard {
	return &s.shards[h%uint64(len(s.shards))]
}

// ShardFor reports which shard serves key (server stats attribution).
func (s *Store) ShardFor(key []byte) int {
	return int(fnv1a(key) % uint64(len(s.shards)))
}

// wordsFor returns the item block size for the given key/value lengths.
func wordsFor(keyLen, valLen int) int {
	return itData + (keyLen+7)/8 + (valLen+7)/8
}

// rangeChunk is the staging size (in words) for bulk byte transfers: large
// enough to amortize a LoadRange/StoreRange call over many stripes, small
// enough that the scratch buffer stays cache-resident.
const rangeChunk = 64

// packBytes writes b into consecutive words starting at a. Bytes are
// staged through the transaction's range buffer in rangeChunk-word slabs
// and stored with one StoreRange per slab, so the TM acquires each
// covering stripe once instead of once per word.
func packBytes(tx tm.Tx, a memseg.Addr, b []byte) {
	buf := tx.RangeBuf(rangeChunk)
	for len(b) > 0 {
		nw := (len(b) + 7) / 8
		if nw > rangeChunk {
			nw = rangeChunk
		}
		take := nw * 8
		if take > len(b) {
			take = len(b)
		}
		full := take &^ 7
		for i := 0; i < full; i += 8 {
			buf[i/8] = binary.LittleEndian.Uint64(b[i:])
		}
		if full < take {
			var w uint64
			for j := 0; full+j < take; j++ {
				w |= uint64(b[full+j]) << (8 * j)
			}
			buf[full/8] = w
		}
		tx.StoreRange(a, buf[:nw])
		a += memseg.Addr(nw)
		b = b[take:]
	}
}

// unpackBytes reads n bytes from consecutive words starting at a.
func unpackBytes(tx tm.Tx, a memseg.Addr, n int) []byte {
	return unpackAppend(tx, a, n, nil)
}

// unpackAppend appends n bytes read from consecutive words starting at a
// to dst, growing it as needed. Reusing dst across calls keeps the hot
// read path allocation-free once the buffer has warmed up.
func unpackAppend(tx tm.Tx, a memseg.Addr, n int, dst []byte) []byte {
	base := len(dst)
	if cap(dst) < base+n {
		grown := make([]byte, base, base+n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:base+n]
	out := dst[base:]
	buf := tx.RangeBuf(rangeChunk)
	for len(out) > 0 {
		nw := (len(out) + 7) / 8
		if nw > rangeChunk {
			nw = rangeChunk
		}
		tx.LoadRange(a, buf[:nw])
		take := nw * 8
		if take > len(out) {
			take = len(out)
		}
		full := take &^ 7
		for i := 0; i < full; i += 8 {
			binary.LittleEndian.PutUint64(out[i:], buf[i/8])
		}
		for i := full; i < take; i++ {
			out[i] = byte(buf[i/8] >> (8 * (i % 8)))
		}
		a += memseg.Addr(nw)
		out = out[take:]
	}
	return dst
}

// keyMatches compares the stored key at item against key — no unpacked
// copy, no allocation. The length check in the meta word screens most
// mismatches; survivors load the whole packed key with one LoadRange
// (MaxKeyLen is 32 words, so one call and one stripe entry per 1<<shift
// words) and compare word-wise. packBytes zero-pads the final word, so
// padding the probe key the same way makes whole-word equality exact.
func keyMatches(tx tm.Tx, item memseg.Addr, key []byte) bool {
	meta := tx.Load(item + itMeta)
	if int(meta>>32) != len(key) {
		return false
	}
	nw := (len(key) + 7) / 8
	buf := tx.RangeBuf(nw)
	tx.LoadRange(item+itData, buf)
	full := len(key) &^ 7
	for i := 0; i < full; i += 8 {
		if buf[i/8] != binary.LittleEndian.Uint64(key[i:]) {
			return false
		}
	}
	if full < len(key) {
		var w uint64
		for j := 0; full+j < len(key); j++ {
			w |= uint64(key[full+j]) << (8 * j)
		}
		if buf[full/8] != w {
			return false
		}
	}
	return true
}

// findInChain walks a bucket chain; linkAt is the word holding the pointer
// to item (for unlinking); item is Nil when absent.
func (s *Store) findInChain(tx tm.Tx, sh *shard, bucket memseg.Addr, key []byte) (linkAt, item memseg.Addr) {
	linkAt = bucket
	item = memseg.Addr(tx.Load(linkAt))
	for item != memseg.Nil {
		if keyMatches(tx, item, key) {
			return linkAt, item
		}
		linkAt = item + itChain
		item = memseg.Addr(tx.Load(linkAt))
	}
	return linkAt, memseg.Nil
}

// --- LRU list maintenance (intrusive doubly-linked, head = most recent) ---

func (s *Store) lruUnlink(tx tm.Tx, sh *shard, item memseg.Addr) {
	prev := memseg.Addr(tx.Load(item + itPrev))
	next := memseg.Addr(tx.Load(item + itNext))
	if prev == memseg.Nil {
		tx.Store(sh.base+shLRUHead, uint64(next))
	} else {
		tx.Store(prev+itNext, uint64(next))
	}
	if next == memseg.Nil {
		tx.Store(sh.base+shLRUTail, uint64(prev))
	} else {
		tx.Store(next+itPrev, uint64(prev))
	}
}

func (s *Store) lruPushFront(tx tm.Tx, sh *shard, item memseg.Addr) {
	head := memseg.Addr(tx.Load(sh.base + shLRUHead))
	tx.Store(item+itPrev, uint64(memseg.Nil))
	tx.Store(item+itNext, uint64(head))
	if head != memseg.Nil {
		tx.Store(head+itPrev, uint64(item))
	} else {
		tx.Store(sh.base+shLRUTail, uint64(item))
	}
	tx.Store(sh.base+shLRUHead, uint64(item))
}

// bump adds delta to one per-shard counter inside the caller's transaction.
func bump(tx tm.Tx, sh *shard, idx int, delta uint64) {
	a := sh.base + shStats + memseg.Addr(idx)
	tx.Store(a, tx.Load(a)+delta)
}

// nextCas advances the shard's CAS sequence and returns the new token.
// Tokens start at 1, so 0 never names a stored item.
func nextCas(tx tm.Tx, sh *shard) uint64 {
	c := tx.Load(sh.base+shCasSeq) + 1
	tx.Store(sh.base+shCasSeq, c)
	return c
}

// Item is one cache entry as returned by GetItem.
type Item struct {
	Value []byte
	Flags uint32
	CAS   uint64
}

// Get returns the value for key, bumping it to most-recently-used.
func (s *Store) Get(th *tm.Thread, key []byte) ([]byte, bool, error) {
	it, ok, err := s.GetItem(th, key)
	return it.Value, ok, err
}

// GetItem returns the full entry (value, flags, CAS token) for key,
// bumping it to most-recently-used.
func (s *Store) GetItem(th *tm.Thread, key []byte) (Item, bool, error) {
	_, it, ok, err := s.GetItemAppend(th, key, nil)
	return it, ok, err
}

// GetItemAppend is GetItem with caller-owned value storage: on a hit the
// value bytes are appended to dst and the returned Item's Value aliases
// that appended region. Reusing dst across calls makes the read path
// allocation-free once the buffer has warmed up. The (possibly grown)
// buffer is always returned, truncated back to its original length on a
// miss or error.
//
//gotle:hotpath per-get read path appending into the caller's reused buffer
func (s *Store) GetItemAppend(th *tm.Thread, key, dst []byte) ([]byte, Item, bool, error) {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return dst, Item{}, false, ErrBadKey
	}
	h := fnv1a(key)
	sh := s.shardFor(h)
	bucket := sh.bucket(h)
	base := len(dst)
	var it Item
	found := false
	out := dst
	err := sh.mu.Do(th, func(tx tm.Tx) error {
		// A get never privatizes: safe to skip quiescence (Listing 2).
		tx.NoQuiesce()
		// Rewind the append cursor: a retried attempt must not keep the
		// previous attempt's bytes.
		out = out[:base] //gotle:allow txpure the only cross-attempt read is this rewind to the pre-call length; the bytes beyond base are write-only per attempt
		_, item := s.findInChain(tx, sh, bucket, key)
		if item == memseg.Nil {
			found = false
			bump(tx, sh, stGets, 1)
			return nil
		}
		meta := tx.Load(item + itMeta)
		keyWords := (int(meta>>32) + 7) / 8
		out = unpackAppend(tx, item+itData+memseg.Addr(keyWords), int(meta&0xFFFFFFFF), out) //gotle:allow txpure append-only past base, rewound above; a committed attempt's bytes are the last attempt's
		it.Flags = uint32(tx.Load(item + itFlags))                                           //gotle:allow txpure write-once out-param, read only after Do returns
		it.CAS = tx.Load(item + itCas)                                                       //gotle:allow txpure write-once out-param, read only after Do returns
		s.lruUnlink(tx, sh, item)
		s.lruPushFront(tx, sh, item)
		found = true
		bump(tx, sh, stGets, 1)
		bump(tx, sh, stHits, 1)
		return nil
	})
	if err != nil || !found {
		return out[:base], Item{}, false, err
	}
	it.Value = out[base:]
	return out, it, true, nil
}

// StoreStatus is the outcome of a conditional store (memcached semantics).
type StoreStatus int

const (
	// Stored: the value was written.
	Stored StoreStatus = iota
	// NotStored: add found an existing entry, or replace found none.
	NotStored
	// CASExists: the entry's CAS token no longer matches (modified since
	// the client's gets).
	CASExists
	// CASNotFound: cas addressed a key that is no longer present.
	CASNotFound
)

func (st StoreStatus) String() string {
	switch st {
	case Stored:
		return "STORED"
	case NotStored:
		return "NOT_STORED"
	case CASExists:
		return "EXISTS"
	case CASNotFound:
		return "NOT_FOUND"
	default:
		return fmt.Sprintf("status(%d)", int(st))
	}
}

// storeMode selects the conditional-store verb.
type storeMode int

const (
	modeSet storeMode = iota
	modeAdd
	modeReplace
	modeCAS
)

// Set inserts or replaces key's value, evicting LRU items past the shard
// capacity.
func (s *Store) Set(th *tm.Thread, key, val []byte) error {
	_, _, err := s.mutate(th, key, val, 0, modeSet, 0)
	return err
}

// SetItem is Set with client flags.
func (s *Store) SetItem(th *tm.Thread, key, val []byte, flags uint32) error {
	_, _, err := s.mutate(th, key, val, flags, modeSet, 0)
	return err
}

// SetItemD is SetItem returning a durability ticket: Wait on it before
// acking the client. With no WAL attached the ticket is a no-op.
func (s *Store) SetItemD(th *tm.Thread, key, val []byte, flags uint32) (wal.Ticket, error) {
	_, tk, err := s.mutate(th, key, val, flags, modeSet, 0)
	return tk, err
}

// Add stores only if key is absent; reports whether it stored.
func (s *Store) Add(th *tm.Thread, key, val []byte, flags uint32) (bool, error) {
	st, _, err := s.mutate(th, key, val, flags, modeAdd, 0)
	return st == Stored, err
}

// AddD is Add with a durability ticket.
func (s *Store) AddD(th *tm.Thread, key, val []byte, flags uint32) (bool, wal.Ticket, error) {
	st, tk, err := s.mutate(th, key, val, flags, modeAdd, 0)
	return st == Stored, tk, err
}

// Replace stores only if key is present; reports whether it stored.
func (s *Store) Replace(th *tm.Thread, key, val []byte, flags uint32) (bool, error) {
	st, _, err := s.mutate(th, key, val, flags, modeReplace, 0)
	return st == Stored, err
}

// ReplaceD is Replace with a durability ticket.
func (s *Store) ReplaceD(th *tm.Thread, key, val []byte, flags uint32) (bool, wal.Ticket, error) {
	st, tk, err := s.mutate(th, key, val, flags, modeReplace, 0)
	return st == Stored, tk, err
}

// CompareAndSwap stores only if key is present and its CAS token equals
// cas (from a previous GetItem).
func (s *Store) CompareAndSwap(th *tm.Thread, key, val []byte, flags uint32, cas uint64) (StoreStatus, error) {
	st, _, err := s.mutate(th, key, val, flags, modeCAS, cas)
	return st, err
}

// CompareAndSwapD is CompareAndSwap with a durability ticket.
func (s *Store) CompareAndSwapD(th *tm.Thread, key, val []byte, flags uint32, cas uint64) (StoreStatus, wal.Ticket, error) {
	return s.mutate(th, key, val, flags, modeCAS, cas)
}

// mutate is the single conditional-store critical section behind Set, Add,
// Replace and CompareAndSwap: find, check the verb's precondition, unlink
// and free any old entry, insert the new one, evict past capacity.
func (s *Store) mutate(th *tm.Thread, key, val []byte, flags uint32, mode storeMode, wantCas uint64) (StoreStatus, wal.Ticket, error) {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return NotStored, wal.Ticket{}, ErrBadKey
	}
	if len(val) > MaxValLen {
		return NotStored, wal.Ticket{}, ErrBadVal
	}
	h := fnv1a(key)
	sh := s.shardFor(h)
	shardIdx := int(h % uint64(len(s.shards)))
	status := Stored
	var ticket wal.Ticket
	// capest ranks this body worst in the module: the chain walk, LRU
	// eviction sweep, and byte packing all iterate over unknown-length
	// data, so the estimator assumes fresh lines per iteration. That is
	// the right warning for huge values; at the MaxKeyLen/MaxValLen
	// bounds the tests exercise, the true footprint fits HTM.
	//gotle:allow capest worst-case over unknown-length loops; bounded by MaxKeyLen/MaxValLen in practice
	err := sh.mu.Do(th, func(tx tm.Tx) error {
		st, _, _ := s.applyStore(tx, sh, h, key, val, flags, mode, wantCas)
		status = st
		// Unconditional: the engine enforces (or defers, under
		// DeferredReclaim) the allocator-safety wait for freeing attempts
		// regardless of this call, and the store never touches privatized
		// item memory non-transactionally after commit.
		//gotle:allow noqpriv allocator safety is engine-enforced for freeing attempts; no post-commit non-transactional access to privatized items
		tx.NoQuiesce()
		if st == Stored {
			s.walPublish(tx, sh, shardIdx, wal.OpSet, flags, key, val, &ticket)
		}
		return nil
	})
	if err != nil {
		return NotStored, wal.Ticket{}, err
	}
	return status, ticket, nil
}

// applyStore is the conditional-store logic shared by mutate (one op per
// critical section) and MutateBatch (a fused run of ops in one
// transaction). It touches only sh's words. It returns the verb status,
// whether any item memory was freed (the caller must then let the commit
// quiesce), and the eviction count. WAL publication and the NoQuiesce
// decision stay with the caller, which sees the whole transaction.
func (s *Store) applyStore(tx tm.Tx, sh *shard, h uint64, key, val []byte, flags uint32, mode storeMode, wantCas uint64) (status StoreStatus, privatized bool, evicted uint64) {
	bucket := sh.bucket(h)
	linkAt, old := s.findInChain(tx, sh, bucket, key)
	switch mode {
	case modeAdd:
		if old != memseg.Nil {
			return NotStored, false, 0
		}
	case modeReplace:
		if old == memseg.Nil {
			return NotStored, false, 0
		}
	case modeCAS:
		if old == memseg.Nil {
			return CASNotFound, false, 0
		}
		if tx.Load(old+itCas) != wantCas {
			return CASExists, false, 0
		}
	}
	if old != memseg.Nil {
		// Replace: unlink and free the old item.
		tx.Store(linkAt, tx.Load(old+itChain))
		s.lruUnlink(tx, sh, old)
		tx.Store(sh.base+shCount, tx.Load(sh.base+shCount)-1)
		tx.Free(old)
		privatized = true
	}
	item := tx.Alloc(wordsFor(len(key), len(val)))
	tx.Store(item+itMeta, uint64(len(key))<<32|uint64(len(val)))
	tx.Store(item+itCas, nextCas(tx, sh))
	tx.Store(item+itFlags, uint64(flags))
	packBytes(tx, item+itData, key)
	packBytes(tx, item+itData+memseg.Addr((len(key)+7)/8), val)
	// Link into the bucket and the LRU front.
	tx.Store(item+itChain, tx.Load(bucket))
	tx.Store(bucket, uint64(item))
	s.lruPushFront(tx, sh, item)
	count := tx.Load(sh.base+shCount) + 1
	tx.Store(sh.base+shCount, count)
	// Evict past capacity.
	for count > uint64(s.cfg.MaxItemsPerShard) {
		victim := memseg.Addr(tx.Load(sh.base + shLRUTail))
		if victim == memseg.Nil || victim == item {
			break
		}
		s.evict(tx, sh, victim)
		count--
		tx.Store(sh.base+shCount, count)
		evicted++
		privatized = true
	}
	bump(tx, sh, stSets, 1)
	if evicted > 0 {
		bump(tx, sh, stEvictions, evicted)
	}
	// Evictions are deliberately NOT logged: they are a cache-policy
	// decision, not an acked client mutation, and replay re-applies
	// the same capacity bound anyway.
	return Stored, privatized, evicted
}

// IncrStatus is the outcome of an Incr/Decr.
type IncrStatus int

const (
	// IncrStored: the counter was updated.
	IncrStored IncrStatus = iota
	// IncrNotFound: the key is absent (memcached does not auto-create).
	IncrNotFound
	// IncrNaN: the stored value is not an unsigned decimal integer.
	IncrNaN
)

// Incr adds (or, with decr, subtracts) delta from the decimal counter
// stored at key, all within one critical section — the read-parse-format-
// write cycle is atomic, which is exactly the kind of compound operation
// lock elision must keep indivisible. Decrement floors at zero, increment
// wraps at 2^64, matching memcached.
func (s *Store) Incr(th *tm.Thread, key []byte, delta uint64, decr bool) (uint64, IncrStatus, error) {
	v, st, _, err := s.IncrD(th, key, delta, decr)
	return v, st, err
}

// IncrD is Incr with a durability ticket. The redo record is a logical
// OpSet of the post-arithmetic decimal bytes (flags preserved): replay
// must not re-run the arithmetic, because the pre-state it read may
// itself be a replayed value.
func (s *Store) IncrD(th *tm.Thread, key []byte, delta uint64, decr bool) (uint64, IncrStatus, wal.Ticket, error) {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return 0, IncrNotFound, wal.Ticket{}, ErrBadKey
	}
	h := fnv1a(key)
	sh := s.shardFor(h)
	shardIdx := int(h % uint64(len(s.shards)))
	var newVal uint64
	var ticket wal.Ticket
	status := IncrStored
	//gotle:allow capest worst-case over unknown-length loops; bounded by MaxKeyLen/MaxValLen in practice
	err := sh.mu.Do(th, func(tx tm.Tx) error {
		var numB [20]byte
		nv, newBytes, flags, st, _ := s.applyIncr(tx, sh, h, key, delta, decr, numB[:0])
		newVal, status = nv, st
		// Unconditional; see the store path for why this is always safe.
		//gotle:allow noqpriv allocator safety is engine-enforced for freeing attempts; no post-commit non-transactional access to privatized items
		tx.NoQuiesce()
		if st == IncrStored {
			s.walPublish(tx, sh, shardIdx, wal.OpSet, flags, key, newBytes, &ticket)
		}
		return nil
	})
	if err != nil {
		return 0, IncrNotFound, wal.Ticket{}, err
	}
	return newVal, status, ticket, nil
}

// applyIncr is the incr/decr logic shared by IncrD and MutateBatch. It
// returns the new counter value, its decimal bytes (for the caller's redo
// record — replay must not re-run the arithmetic), the item's flags, the
// status, and whether the op freed item memory (digit-width change
// reallocates).
//
// The new value's digits are appended to dst; newBytes is the full
// appended slice, so the digits are newBytes[len(dst):]. The batch path
// hands in its scratch arena (and re-adopts the returned slice, since
// append may have grown it) so a fused run of incrs stays
// allocation-free; the solo path passes a small stack buffer. The current
// value is read into a stack buffer too (a stored counter never exceeds
// 20 digits), so the read side allocates nothing.
func (s *Store) applyIncr(tx tm.Tx, sh *shard, h uint64, key []byte, delta uint64, decr bool, dst []byte) (newVal uint64, newBytes []byte, flags uint32, status IncrStatus, privatized bool) {
	bucket := sh.bucket(h)
	linkAt, item := s.findInChain(tx, sh, bucket, key)
	if item == memseg.Nil {
		return 0, nil, 0, IncrNotFound, false
	}
	meta := tx.Load(item + itMeta)
	keyWords := (int(meta>>32) + 7) / 8
	valLen := int(meta & 0xFFFFFFFF)
	if valLen > 20 {
		return 0, nil, 0, IncrNaN, false // a decimal uint64 never exceeds 20 digits
	}
	var curB [20]byte
	cur, ok := parseDecimal(unpackAppend(tx, item+itData+memseg.Addr(keyWords), valLen, curB[:0]))
	if !ok {
		return 0, nil, 0, IncrNaN, false
	}
	var next uint64
	if decr {
		if delta > cur {
			next = 0
		} else {
			next = cur - delta
		}
	} else {
		next = cur + delta // wraps at 2^64, like memcached
	}
	full := strconv.AppendUint(dst, next, 10)
	digits := full[len(dst):]
	fl := tx.Load(item + itFlags)
	if len(digits) == valLen {
		// Same digit count: overwrite the value words in place. The
		// value region starts on a word boundary, so packBytes'
		// zero-padding never clobbers key bytes.
		packBytes(tx, item+itData+memseg.Addr(keyWords), digits)
		tx.Store(item+itCas, nextCas(tx, sh))
		return next, full, uint32(fl), IncrStored, false
	}
	// Digit count changed: reallocate the item (same key, new value).
	tx.Store(linkAt, tx.Load(item+itChain))
	s.lruUnlink(tx, sh, item)
	tx.Free(item)
	fresh := tx.Alloc(wordsFor(len(key), len(digits)))
	tx.Store(fresh+itMeta, uint64(len(key))<<32|uint64(len(digits)))
	tx.Store(fresh+itCas, nextCas(tx, sh))
	tx.Store(fresh+itFlags, fl)
	packBytes(tx, fresh+itData, key)
	packBytes(tx, fresh+itData+memseg.Addr(keyWords), digits)
	tx.Store(fresh+itChain, tx.Load(bucket))
	tx.Store(bucket, uint64(fresh))
	s.lruPushFront(tx, sh, fresh)
	return next, full, uint32(fl), IncrStored, true
}

// parseDecimal parses an unsigned decimal byte string strictly (no sign,
// no spaces), as memcached requires for incr/decr values.
func parseDecimal(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	var v uint64
	for _, c := range b {
		d := uint64(c - '0')
		if v > (^uint64(0)-d)/10 {
			return 0, false // overflows uint64
		}
		v = v*10 + d
	}
	return v, true
}

// evict removes victim from its bucket chain and the LRU list, freeing it.
func (s *Store) evict(tx tm.Tx, sh *shard, victim memseg.Addr) {
	meta := tx.Load(victim + itMeta)
	key := unpackBytes(tx, victim+itData, int(meta>>32))
	h := fnv1a(key)
	bucket := sh.bucket(h)
	linkAt, item := s.findInChain(tx, sh, bucket, key)
	if item == victim {
		tx.Store(linkAt, tx.Load(victim+itChain))
	}
	s.lruUnlink(tx, sh, victim)
	tx.Free(victim)
}

// Delete removes key; it reports whether the key was present.
func (s *Store) Delete(th *tm.Thread, key []byte) (bool, error) {
	removed, _, err := s.DeleteD(th, key)
	return removed, err
}

// DeleteD is Delete with a durability ticket.
func (s *Store) DeleteD(th *tm.Thread, key []byte) (bool, wal.Ticket, error) {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return false, wal.Ticket{}, ErrBadKey
	}
	h := fnv1a(key)
	sh := s.shardFor(h)
	shardIdx := int(h % uint64(len(s.shards)))
	removed := false
	var ticket wal.Ticket
	err := sh.mu.Do(th, func(tx tm.Tx) error {
		removed = s.applyDelete(tx, sh, h, key)
		// Unconditional; see the store path for why this is always safe.
		//gotle:allow noqpriv allocator safety is engine-enforced for freeing attempts; no post-commit non-transactional access to privatized items
		tx.NoQuiesce()
		if !removed {
			return nil
		}
		s.walPublish(tx, sh, shardIdx, wal.OpDelete, 0, key, nil, &ticket)
		return nil
	})
	return removed, ticket, err
}

// applyDelete is the delete logic shared by DeleteD and MutateBatch. It
// reports whether an item was unlinked and freed (false = miss, nothing
// privatized).
func (s *Store) applyDelete(tx tm.Tx, sh *shard, h uint64, key []byte) bool {
	bucket := sh.bucket(h)
	linkAt, item := s.findInChain(tx, sh, bucket, key)
	if item == memseg.Nil {
		return false
	}
	tx.Store(linkAt, tx.Load(item+itChain))
	s.lruUnlink(tx, sh, item)
	tx.Store(sh.base+shCount, tx.Load(sh.base+shCount)-1)
	tx.Free(item)
	bump(tx, sh, stDeletes, 1)
	return true
}

// Len reports the total item count across shards.
func (s *Store) Len(th *tm.Thread) (int, error) {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		// The shard count lands in a write-only local: `total +=` inside
		// the body would re-add the previous attempt's value when the
		// transaction retries.
		var count int
		err := sh.mu.Do(th, func(tx tm.Tx) error {
			tx.NoQuiesce()
			count = int(tx.Load(sh.base + shCount))
			return nil
		})
		if err != nil {
			return 0, err
		}
		total += count
	}
	return total, nil
}

// Stats reports the store-wide counters.
type Stats struct {
	Gets, Hits, Sets, Deletes, Evictions uint64
}

// Stats sums the per-shard counters. Each shard is read in its own
// critical section; the result is a consistent snapshot per shard, not
// across shards (memcached's stats are equally loose).
func (s *Store) Stats(th *tm.Thread) (Stats, error) {
	var out Stats
	for i := range s.shards {
		sh := &s.shards[i]
		// Counters land in a write-only local array: accumulating into
		// `out` inside the body would double-count across retries.
		var snap [stWords]uint64
		err := sh.mu.Do(th, func(tx tm.Tx) error {
			tx.NoQuiesce()
			var v [stWords]uint64
			for j := 0; j < stWords; j++ {
				v[j] = tx.Load(sh.base + shStats + memseg.Addr(j))
			}
			snap = v
			return nil
		})
		if err != nil {
			return Stats{}, err
		}
		out.Gets += snap[stGets]
		out.Hits += snap[stHits]
		out.Sets += snap[stSets]
		out.Deletes += snap[stDeletes]
		out.Evictions += snap[stEvictions]
	}
	return out, nil
}

// ShardStats reads one shard's counters (the server's per-shard stats).
func (s *Store) ShardStats(th *tm.Thread, shardIdx int) (Stats, error) {
	sh := &s.shards[shardIdx%len(s.shards)]
	var snap [stWords]uint64
	err := sh.mu.Do(th, func(tx tm.Tx) error {
		tx.NoQuiesce()
		var v [stWords]uint64
		for j := 0; j < stWords; j++ {
			v[j] = tx.Load(sh.base + shStats + memseg.Addr(j))
		}
		snap = v
		return nil
	})
	if err != nil {
		return Stats{}, err
	}
	return Stats{
		Gets:      snap[stGets],
		Hits:      snap[stHits],
		Sets:      snap[stSets],
		Deletes:   snap[stDeletes],
		Evictions: snap[stEvictions],
	}, nil
}

// LRUKeys returns a shard's keys in recency order (tests).
func (s *Store) LRUKeys(th *tm.Thread, shardIdx int) ([]string, error) {
	sh := &s.shards[shardIdx%len(s.shards)]
	var keys []string
	err := sh.mu.Do(th, func(tx tm.Tx) error {
		tx.NoQuiesce()
		// Accumulate into a body-local slice and assign the captured
		// variable once: appending to `keys` directly would leave the
		// previous attempt's entries in place across a retry.
		var ks []string
		item := memseg.Addr(tx.Load(sh.base + shLRUHead))
		for item != memseg.Nil {
			meta := tx.Load(item + itMeta)
			ks = append(ks, string(unpackBytes(tx, item+itData, int(meta>>32))))
			item = memseg.Addr(tx.Load(item + itNext))
		}
		keys = ks
		return nil
	})
	return keys, err
}

package kvstore

import (
	"fmt"
	"testing"

	"gotle/internal/memseg"
	"gotle/internal/tle"
)

// longestChain walks every bucket of shard i non-transactionally and
// returns the length of the longest chain.
func longestChain(s *Store, i int) int {
	e := s.r.Engine()
	sh := &s.shards[i]
	longest := 0
	for b := uint64(0); b <= sh.mask; b++ {
		n := 0
		for it := memseg.Addr(e.Load(sh.index + memseg.Addr(b))); it != memseg.Nil; it = memseg.Addr(e.Load(it + itChain)) {
			n++
		}
		longest = max(longest, n)
	}
	return longest
}

func TestDefaultIndexCoversCapacity(t *testing.T) {
	for _, capacity := range []int{0, 1, 100, 128, 4096, 5000} {
		s := New(newRT(tle.PolicyPthread), Config{Shards: 2, MaxItemsPerShard: capacity})
		want := s.cfg.MaxItemsPerShard
		if got := s.cfg.BucketsPerShard; got < want {
			t.Errorf("MaxItemsPerShard %d: %d buckets per shard, want >= %d", capacity, got, want)
		}
		if got := int(s.shards[1].mask) + 1; got != s.cfg.BucketsPerShard {
			t.Errorf("MaxItemsPerShard %d: shard index has %d buckets, config says %d", capacity, got, s.cfg.BucketsPerShard)
		}
	}
}

// A shard filled to the serving benchmark's capacity (4,096 items) with
// its key shape ("key:<n>") keeps every chain short, so a get reads O(1)
// items. fnv1a is deterministic, so is this bound.
func TestFullShardChainsStayShort(t *testing.T) {
	const capacity = 4096
	r := tle.New(tle.PolicyPthread, tle.Config{MemWords: 1 << 22})
	s := New(r, Config{MaxItemsPerShard: capacity})
	th := r.NewThread()
	filled := 0
	for n := 0; filled < capacity; n++ {
		key := []byte(fmt.Sprintf("key:%d", n))
		if s.ShardFor(key) != 0 {
			continue
		}
		if err := s.Set(th, key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		filled++
	}
	if st, err := s.Stats(th); err != nil || st.Evictions != 0 {
		t.Fatalf("%d evictions while filling to capacity (%v)", st.Evictions, err)
	}
	if got := longestChain(s, 0); got > 8 {
		t.Fatalf("longest chain of a full shard = %d items, want <= 8", got)
	}
}

// A capacity whose default index would exceed the largest block builds
// with the index clamped to memseg.MaxAlloc instead of failing to allocate.
func TestHugeCapacityClampsIndex(t *testing.T) {
	r := tle.New(tle.PolicyPthread, tle.Config{MemWords: 1 << 20})
	s := New(r, Config{Shards: 2, MaxItemsPerShard: 1 << 20})
	if got := s.cfg.BucketsPerShard; got != memseg.MaxAlloc {
		t.Fatalf("BucketsPerShard = %d, want the clamp %d", got, memseg.MaxAlloc)
	}
	th := r.NewThread()
	if err := s.Set(th, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s.Get(th, []byte("k")); !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
}

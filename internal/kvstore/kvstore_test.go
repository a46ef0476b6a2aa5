package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gotle/internal/htm"
	"gotle/internal/lockcheck"
	"gotle/internal/tle"
	"gotle/internal/tm"
)

func newRT(p tle.Policy) *tle.Runtime {
	return tle.New(p, tle.Config{
		MemWords: 1 << 20,
		HTM:      htm.Config{EventAbortPerMillion: -1},
	})
}

func TestGetSetDeleteBasics(t *testing.T) {
	for _, p := range tle.Policies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			r := newRT(p)
			s := New(r, Config{})
			th := r.NewThread()
			if err := s.Set(th, []byte("k1"), []byte("v1")); err != nil {
				t.Fatal(err)
			}
			v, ok, err := s.Get(th, []byte("k1"))
			if err != nil || !ok || string(v) != "v1" {
				t.Fatalf("Get = %q,%v,%v", v, ok, err)
			}
			if _, ok, _ := s.Get(th, []byte("nope")); ok {
				t.Fatal("absent key found")
			}
			// Replace.
			if err := s.Set(th, []byte("k1"), []byte("v2-longer")); err != nil {
				t.Fatal(err)
			}
			v, ok, _ = s.Get(th, []byte("k1"))
			if !ok || string(v) != "v2-longer" {
				t.Fatalf("after replace: %q,%v", v, ok)
			}
			rm, err := s.Delete(th, []byte("k1"))
			if err != nil || !rm {
				t.Fatalf("Delete = %v,%v", rm, err)
			}
			if rm, _ := s.Delete(th, []byte("k1")); rm {
				t.Fatal("double delete succeeded")
			}
			if n, _ := s.Len(th); n != 0 {
				t.Fatalf("Len = %d", n)
			}
		})
	}
}

// TestStripedOrecs runs the store on cache-line-granularity orecs
// (StripeShift 3) — the serving configuration, where pack/unpack/compare
// go through LoadRange/StoreRange one stripe at a time — and checks value
// round-trips and concurrent counter atomicity under every policy.
func TestStripedOrecs(t *testing.T) {
	for _, p := range tle.Policies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			r := tle.New(p, tle.Config{
				MemWords:    1 << 20,
				StripeShift: 3,
				HTM:         htm.Config{EventAbortPerMillion: -1},
			})
			s := New(r, Config{Shards: 2})
			th := r.NewThread()
			for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 500, 2048} {
				key := []byte(fmt.Sprintf("k%d", n))
				val := make([]byte, n)
				for i := range val {
					val[i] = byte(i*13 + n)
				}
				if err := s.Set(th, key, val); err != nil {
					t.Fatalf("Set len %d: %v", n, err)
				}
				got, ok, err := s.Get(th, key)
				if err != nil || !ok || !bytes.Equal(got, val) {
					t.Fatalf("len %d round trip: ok=%v err=%v", n, ok, err)
				}
			}
			if err := s.Set(th, []byte("ctr"), []byte("0")); err != nil {
				t.Fatal(err)
			}
			th.Release()
			// Concurrent increments: with striped orecs neighbouring items
			// share stripes, so this also shakes out false-conflict hangs.
			const workers, rounds = 4, 200
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					wth := r.NewThread()
					defer wth.Release()
					for i := 0; i < rounds; i++ {
						if _, st, err := s.Incr(wth, []byte("ctr"), 1, false); err != nil || st != IncrStored {
							t.Errorf("Incr: %v %v", st, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			th = r.NewThread()
			defer th.Release()
			v, ok, err := s.Get(th, []byte("ctr"))
			if err != nil || !ok || string(v) != fmt.Sprint(workers*rounds) {
				t.Fatalf("ctr = %q,%v,%v, want %d", v, ok, err, workers*rounds)
			}
		})
	}
}

func TestValueLengths(t *testing.T) {
	r := newRT(tle.PolicySTMCondVar)
	s := New(r, Config{})
	th := r.NewThread()
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 255, 1024} {
		key := []byte(fmt.Sprintf("key-%d", n))
		val := make([]byte, n)
		for i := range val {
			val[i] = byte(i * 7)
		}
		if err := s.Set(th, key, val); err != nil {
			t.Fatalf("Set len %d: %v", n, err)
		}
		got, ok, err := s.Get(th, key)
		if err != nil || !ok || !bytes.Equal(got, val) {
			t.Fatalf("len %d round trip failed: ok=%v err=%v", n, ok, err)
		}
	}
}

func TestInputValidation(t *testing.T) {
	r := newRT(tle.PolicyPthread)
	s := New(r, Config{})
	th := r.NewThread()
	if err := s.Set(th, nil, []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := s.Set(th, make([]byte, MaxKeyLen+1), []byte("v")); err == nil {
		t.Fatal("oversize key accepted")
	}
	if err := s.Set(th, []byte("k"), make([]byte, MaxValLen+1)); err == nil {
		t.Fatal("oversize value accepted")
	}
	if _, _, err := s.Get(th, nil); err == nil {
		t.Fatal("Get with empty key accepted")
	}
	if _, err := s.Delete(th, nil); err == nil {
		t.Fatal("Delete with empty key accepted")
	}
}

// Model check against a map, including hash-collision chains (1 shard,
// 2 buckets forces long chains).
func TestMatchesModel(t *testing.T) {
	r := newRT(tle.PolicySTMCondVarNoQ)
	s := New(r, Config{Shards: 1, BucketsPerShard: 2, MaxItemsPerShard: 10_000})
	th := r.NewThread()
	model := map[string]string{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		key := fmt.Sprintf("k%d", rng.Intn(200))
		switch rng.Intn(3) {
		case 0:
			val := fmt.Sprintf("v%d", i)
			if err := s.Set(th, []byte(key), []byte(val)); err != nil {
				t.Fatal(err)
			}
			model[key] = val
		case 1:
			rm, err := s.Delete(th, []byte(key))
			if err != nil {
				t.Fatal(err)
			}
			if _, want := model[key]; rm != want {
				t.Fatalf("Delete(%s) = %v, model %v (step %d)", key, rm, want, i)
			}
			delete(model, key)
		default:
			v, ok, err := s.Get(th, []byte(key))
			if err != nil {
				t.Fatal(err)
			}
			want, wantOk := model[key]
			if ok != wantOk || (ok && string(v) != want) {
				t.Fatalf("Get(%s) = %q,%v; model %q,%v (step %d)", key, v, ok, want, wantOk, i)
			}
		}
	}
	if n, _ := s.Len(th); n != len(model) {
		t.Fatalf("Len = %d, model %d", n, len(model))
	}
	// The explicit two-bucket index takes precedence over the default, so
	// the chains really were long: by pigeonhole one holds half the keys.
	if got, want := longestChain(s, 0), (len(model)+1)/2; got < want {
		t.Fatalf("longest chain = %d items, want >= %d with 2 buckets", got, want)
	}
}

// LRU eviction: capacity 3 in a single shard evicts in exact LRU order.
func TestLRUEvictionOrder(t *testing.T) {
	r := newRT(tle.PolicyPthread)
	s := New(r, Config{Shards: 1, MaxItemsPerShard: 3})
	th := r.NewThread()
	for _, k := range []string{"a", "b", "c"} {
		s.Set(th, []byte(k), []byte("v"))
	}
	// Touch "a" so "b" becomes LRU.
	s.Get(th, []byte("a"))
	// Insert "d": "b" must be evicted.
	s.Set(th, []byte("d"), []byte("v"))
	if _, ok, _ := s.Get(th, []byte("b")); ok {
		t.Fatal("LRU victim b survived")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok, _ := s.Get(th, []byte(k)); !ok {
			t.Fatalf("%s wrongly evicted", k)
		}
	}
	st, _ := s.Stats(th)
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d", st.Evictions)
	}
	keys, err := s.LRUKeys(th, 0)
	if err != nil || len(keys) != 3 {
		t.Fatalf("LRUKeys = %v, %v", keys, err)
	}
}

func TestStatsCounters(t *testing.T) {
	r := newRT(tle.PolicyHTMCondVar)
	s := New(r, Config{})
	th := r.NewThread()
	s.Set(th, []byte("x"), []byte("1"))
	s.Get(th, []byte("x"))
	s.Get(th, []byte("y"))
	s.Delete(th, []byte("x"))
	st, err := s.Stats(th)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sets != 1 || st.Gets != 2 || st.Hits != 1 || st.Deletes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// The store's critical sections must be 2PL-clean (elidable without
// refactoring), including the nested stats lock.
func TestStoreIs2PLClean(t *testing.T) {
	c := lockcheck.New()
	r := tle.New(tle.PolicyPthread, tle.Config{MemWords: 1 << 20, Tracer: c})
	s := New(r, Config{Shards: 2, MaxItemsPerShard: 4})
	th := r.NewThread()
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("k%d", i%20))
		s.Set(th, k, []byte("v"))
		s.Get(th, k)
		if i%5 == 0 {
			s.Delete(th, k)
		}
	}
	if !c.Clean() {
		t.Fatalf("kvstore violates 2PL: %v %v", c.Violations(), c.Errors())
	}
}

// Concurrent mixed workload across all policies: per-key last-writer data
// integrity and stats coherence.
func TestConcurrentMixedWorkload(t *testing.T) {
	for _, p := range tle.Policies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			r := newRT(p)
			s := New(r, Config{Shards: 4, MaxItemsPerShard: 256})
			const threads, per = 4, 400
			var wg sync.WaitGroup
			for w := 0; w < threads; w++ {
				th := r.NewThread()
				rng := rand.New(rand.NewSource(int64(w)))
				wg.Add(1)
				go func(w int, th *tm.Thread, rng *rand.Rand) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						key := []byte(fmt.Sprintf("k%d", rng.Intn(64)))
						switch rng.Intn(4) {
						case 0:
							if err := s.Set(th, key, key); err != nil {
								t.Errorf("Set: %v", err)
								return
							}
						case 1:
							if _, err := s.Delete(th, key); err != nil {
								t.Errorf("Delete: %v", err)
								return
							}
						default:
							v, ok, err := s.Get(th, key)
							if err != nil {
								t.Errorf("Get: %v", err)
								return
							}
							if ok && !bytes.Equal(v, key) {
								t.Errorf("Get(%s) returned foreign value %q", key, v)
								return
							}
						}
					}
				}(w, th, rng)
			}
			wg.Wait()
			th := r.NewThread()
			st, err := s.Stats(th)
			if err != nil {
				t.Fatal(err)
			}
			if st.Hits > st.Gets {
				t.Fatalf("hits %d > gets %d", st.Hits, st.Gets)
			}
			n, err := s.Len(th)
			if err != nil || n < 0 || n > 64 {
				t.Fatalf("Len = %d, %v", n, err)
			}
		})
	}
}

// Memory accounting: deleting everything returns the heap to its baseline.
func TestNoLeaks(t *testing.T) {
	r := newRT(tle.PolicySTMCondVar)
	s := New(r, Config{Shards: 2})
	th := r.NewThread()
	baseline := r.Engine().Memory().LiveWords()
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if err := s.Set(th, k, bytes.Repeat([]byte("x"), i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if rm, err := s.Delete(th, k); err != nil || !rm {
			t.Fatalf("Delete %d: %v %v", i, rm, err)
		}
	}
	if lw := r.Engine().Memory().LiveWords(); lw != baseline {
		t.Fatalf("leaked %d words", lw-baseline)
	}
}

func BenchmarkMixedOps(b *testing.B) {
	for _, p := range []tle.Policy{tle.PolicyPthread, tle.PolicySTMCondVarNoQ, tle.PolicyHTMCondVar} {
		b.Run(p.String(), func(b *testing.B) {
			r := newRT(p)
			s := New(r, Config{})
			th := r.NewThread()
			keys := make([][]byte, 256)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("bench-key-%d", i))
				s.Set(th, keys[i], keys[i])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[i%len(keys)]
				switch i % 10 {
				case 0:
					s.Set(th, k, k)
				case 1:
					s.Delete(th, k)
					s.Set(th, k, k)
				default:
					s.Get(th, k)
				}
			}
		})
	}
}

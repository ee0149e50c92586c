package offload

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestCacheShardLayout pins the shard-count selection: small capacities
// must collapse to a single shard (exact global LRU — the semantics the
// eviction tests and DecisionCacheSize documentation rely on), while the
// default capacity spreads across maxCacheShards shards of at least
// minShardCapacity entries each. A shard's index is a power of two at
// least twice its capacity, so a probe always ends on an empty slot.
func TestCacheShardLayout(t *testing.T) {
	cases := []struct {
		capacity, shards int
	}{
		{1, 1}, {2, 1}, {32, 1}, {63, 1},
		{64, 2}, {127, 2}, {128, 4}, {256, 8},
		{defaultDecisionCacheSize, maxCacheShards},
		{1 << 20, maxCacheShards},
	}
	for _, c := range cases {
		dc := newDecisionCache(c.capacity, 1, 2)
		if got := len(dc.shards); got != c.shards {
			t.Errorf("capacity %d: %d shards, want %d", c.capacity, got, c.shards)
		}
		total := 0
		for i := range dc.shards {
			s := &dc.shards[i]
			if s.capacity < minShardCapacity && len(dc.shards) > 1 {
				t.Errorf("capacity %d: shard capacity %d below minimum", c.capacity, s.capacity)
			}
			if n := len(s.index); n < 2*s.capacity || n&(n-1) != 0 || n != 1<<(32-s.shift) {
				t.Errorf("capacity %d: index of %d slots (shift %d) for %d entries", c.capacity, n, s.shift, s.capacity)
			}
			if s.slab != nil {
				t.Errorf("capacity %d: slab allocated before the first store", c.capacity)
			}
			total += s.capacity
		}
		if total > c.capacity {
			t.Errorf("capacity %d: shard capacities sum to %d", c.capacity, total)
		}
	}
	if dc := newDecisionCache(-1, 1, 2); len(dc.shards) != 0 {
		t.Error("negative capacity did not disable the cache")
	}
	if dc := newDecisionCache(0, 1, 2); len(dc.shards) != 0 {
		t.Error("zero capacity did not disable the cache")
	}
}

// testCache drives a two-target, one-value decisionCache the way the
// slot evaluator does, with the hash under the test's control — the
// collision-injection device. Key i's predictions encode i, so a lookup
// can prove it got the right entry.
type testCache struct{ *decisionCache }

func newTestCache(capacity int) *testCache {
	return &testCache{decisionCache: newDecisionCache(capacity, 1, 2)}
}

func (tc *testCache) gen(hash uint64) uint64 {
	s := tc.shard(hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

func keyVerdict(i int, decided bool) verdict {
	v := verdict{decided: decided, prov: ProvenanceAnalytical}
	if decided {
		v.targetIdx = i % 2 // cpu/base for even keys, gpu/base for odd
		v.frac = float64(i) / 1024
		if i%3 == 0 {
			v.prov = ProvenanceLearned
		}
	}
	return v
}

// putGen stores key i under hash as of generation gen.
func (tc *testCache) putGen(hash uint64, i int, decided bool, gen uint64) (evicted int, stale bool) {
	pred, cal := [2]float64{float64(i), float64(2 * i)}, [2]float64{float64(3 * i), float64(4 * i)}
	return tc.decisionCache.put(hash, []int64{int64(i)}, pred[:], cal[:], keyVerdict(i, decided), gen)
}

func (tc *testCache) put(hash uint64, i int, decided bool) int {
	evicted, _ := tc.putGen(hash, i, decided, tc.gen(hash))
	return evicted
}

// get looks key i up under hash; a hit that is not key i's own entry,
// whole, fails the test.
func (tc *testCache) get(t *testing.T, hash uint64, i int) (verdict, bool) {
	t.Helper()
	var pred, cal [2]float64
	v, _, ok := tc.decisionCache.get(hash, []int64{int64(i)}, pred[:], cal[:])
	if ok {
		if want := [2]float64{float64(i), float64(2 * i)}; pred != want {
			t.Fatalf("key %d served predictions %v", i, pred)
		}
		if want := [2]float64{float64(3 * i), float64(4 * i)}; cal != want {
			t.Fatalf("key %d served calibrated seconds %v", i, cal)
		}
		if v != keyVerdict(i, v.decided) {
			t.Fatalf("key %d served verdict %+v", i, v)
		}
	}
	return v, ok
}

// TestCacheHashCollision injects entries with identical 64-bit hashes
// but distinct keys and asserts the cache never confuses them: lookups
// must confirm the stored values, eviction must take an entry out of the
// middle of a probe run without corrupting it, and a duplicate put must
// replace in place rather than add an entry.
func TestCacheHashCollision(t *testing.T) {
	dc := newTestCache(64) // 2 shards of 32
	const h = uint64(0xdeadbeef)
	for i := 0; i < 8; i++ {
		if ev := dc.put(h, i, true); ev != 0 {
			t.Fatalf("put %d evicted %d", i, ev)
		}
	}
	for i := 0; i < 8; i++ {
		if _, ok := dc.get(t, h, i); !ok {
			t.Fatalf("entry %d lost among its collisions", i)
		}
	}
	if _, ok := dc.get(t, h, 99); ok {
		t.Fatal("hash-only match served a wrong key")
	}
	// A duplicate put replaces in place: no entry is added, and the
	// ledger must see no eviction.
	if ev := dc.put(h, 3, true); ev != 0 {
		t.Fatalf("duplicate put evicted %d", ev)
	}
	if got := dc.len(); got != 8 {
		t.Fatalf("len = %d after duplicate put, want 8", got)
	}
	// Preserve-decided: an undecided refresh must not erase a decision.
	dc.put(h, 3, false)
	if v, ok := dc.get(t, h, 3); !ok || !v.decided || v.targetIdx != 1 {
		t.Fatalf("undecided refresh erased the decision: %+v", v)
	}
	// Overflow the shard so eviction walks through the collisions: all
	// entries share one hash and so one probe run, and every eviction
	// takes its head out from under the rest.
	shardCap := dc.shard(h).capacity
	evicted := 0
	for i := 8; i < shardCap+16; i++ {
		evicted += dc.put(h, i, true)
	}
	if evicted != 16 {
		t.Fatalf("evicted %d, want 16", evicted)
	}
	if got := dc.len(); got != shardCap {
		t.Fatalf("len = %d, want shard capacity %d", got, shardCap)
	}
	// The survivors are exactly the most recently used; each must still
	// resolve to its own entry through the (long) probe run.
	for i := 16; i < shardCap+16; i++ {
		if _, ok := dc.get(t, h, i); !ok {
			t.Fatalf("MRU entry %d evicted", i)
		}
	}
	for i := 0; i < 16; i++ {
		if _, ok := dc.get(t, h, i); ok {
			t.Fatalf("LRU entry %d not evicted", i)
		}
	}
}

// TestCacheGetVecCollision drives the lookup through an injected
// collision: two binding vectors stored under the same forced hash must
// each resolve to their own entry via the value comparison.
func TestCacheGetVecCollision(t *testing.T) {
	dc := newTestCache(64)
	const h = uint64(42) // forced collision: real hashes of 7 and 1000 differ
	for _, n := range []int{7, 1000} {
		dc.put(h, n, false)
	}
	for _, n := range []int{7, 1000} {
		if _, ok := dc.get(t, h, n); !ok {
			t.Fatalf("n=%d lost to its collision", n)
		}
	}
	if _, ok := dc.get(t, h, 8); ok {
		t.Fatal("hash-only match served a wrong vector")
	}
}

// TestCacheConcurrentCollisionStress hammers one cache from many
// goroutines with entries that all collide into a handful of hashes
// (and therefore shards), interleaving put, get, clear and len. The
// invariant under test — checked on every hit — is that a lookup never
// serves another key's entry, no matter how contended the probe run.
// Run under -race via `make race`.
func TestCacheConcurrentCollisionStress(t *testing.T) {
	dc := newTestCache(256) // 8 shards of 32
	hashes := []uint64{0, 1, 2, 3}
	const (
		workers = 8
		iters   = 4000
		keys    = 64
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := (w*31 + i) % keys
				h := hashes[n%len(hashes)]
				switch i % 5 {
				case 0:
					dc.put(h, n, true)
				case 1, 2:
					var pred, cal [2]float64
					v, _, ok := dc.decisionCache.get(h, []int64{int64(n)}, pred[:], cal[:])
					if ok && (pred[0] != float64(n) || cal[1] != float64(4*n) || v != keyVerdict(n, v.decided)) {
						t.Errorf("get n=%d served %v %v %+v", n, pred, cal, v)
						return
					}
				case 3:
					dc.put(h, n, false)
				case 4:
					if i%1000 == 999 {
						dc.clear()
					} else {
						dc.len()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := dc.len(); got > 256 {
		t.Fatalf("len = %d exceeds capacity", got)
	}
}

// TestCacheNodeReuse: a full shard's eviction reuses the evicted entry's
// storage — the store allocates nothing and the slab does not grow — and
// that must never be observable: the evicted keys are gone, the new ones
// read back as put.
func TestCacheNodeReuse(t *testing.T) {
	dc := newTestCache(2)
	dc.put(1, 1, true)
	dc.put(2, 2, true)
	dc.get(t, 1, 1) // promotes 1: the next victim is 2
	slab := cap(dc.shards[0].slab)

	// Eleven more keys through the two entries (AllocsPerRun calls once
	// to warm up): the first evicts 2 and moves into its storage.
	evicted, next := 0, 3
	if allocs := testing.AllocsPerRun(10, func() {
		evicted += dc.put(uint64(next), next, true)
		next++
	}); allocs != 0 {
		t.Errorf("put into a full shard allocated %v times, want 0 (the evicted entry is reused)", allocs)
	}
	if evicted != 11 || dc.len() != 2 {
		t.Fatalf("evicted %d, %d live entries; want 11 and 2", evicted, dc.len())
	}
	if got := cap(dc.shards[0].slab); got != slab || got != 2*dc.shards[0].stride {
		t.Fatalf("slab of %d words, want the %d of two entries", got, 2*dc.shards[0].stride)
	}
	for _, i := range []int{1, 2, 11} {
		if _, ok := dc.get(t, uint64(i), i); ok {
			t.Fatalf("evicted entry %d still served", i)
		}
	}
	for _, i := range []int{12, 13} {
		if _, ok := dc.get(t, uint64(i), i); !ok {
			t.Fatalf("entry %d missing", i)
		}
	}
}

// lruKeys walks a shard's list from most to least recently used.
func lruKeys(s *cacheShard) []int {
	keys := []int{}
	for e := s.head; e != 0; e = uint32(s.entry(e)[wLinks]) {
		keys = append(keys, int(int64(s.entry(e)[entryHeader])))
	}
	return keys
}

// TestCacheMatchesModelLRU is the store's law: under random get, put and
// clear traffic — keys forced into a handful of colliding hashes, stale
// generations included — it answers exactly as a plain map + list LRU per
// shard does: same hits with the same contents, same eviction counts, the
// same recency order after every step (so the same eviction order), a
// decided entry never replaced by an undecided one, and nothing stored
// across a clear.
func TestCacheMatchesModelLRU(t *testing.T) {
	type modelShard struct {
		order   []int        // most recently used first
		decided map[int]bool // by key
		gen     uint64
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := []int{1, 3, 32, 64, 128}[rng.Intn(5)]
		dc := newTestCache(capacity)
		nhash := 1 + rng.Intn(6)
		hashOf := func(key int) uint64 { return uint64(key % nhash) }
		model := make([]modelShard, len(dc.shards))
		for i := range model {
			model[i].decided = map[int]bool{}
		}
		touch := func(m *modelShard, key int) {
			for i, k := range m.order {
				if k == key {
					copy(m.order[1:i+1], m.order[:i])
					m.order[0] = key
					return
				}
			}
			m.order = append([]int{key}, m.order...)
		}
		keys := 2*capacity + 8
		for step := 0; step < 5000; step++ {
			key := rng.Intn(keys)
			h := hashOf(key)
			m := &model[h&dc.mask]
			switch op := rng.Intn(20); {
			case op == 0:
				dc.clear()
				for i := range model {
					model[i] = modelShard{decided: map[int]bool{}, gen: model[i].gen + 1}
				}
			case op < 8:
				v, ok := dc.get(t, h, key)
				want, wantOK := m.decided[key]
				if ok != wantOK || v.decided != want {
					t.Fatalf("seed %d step %d: get %d = %v (decided %v), model %v (decided %v)",
						seed, step, key, ok, v.decided, wantOK, want)
				}
				if ok {
					touch(m, key)
				}
			default:
				decided, gen := rng.Intn(2) == 0, m.gen
				if rng.Intn(10) == 0 && gen > 0 {
					gen-- // priced before the last clear
				}
				evicted, stale := dc.putGen(h, key, decided, gen)
				wantEvicted := 0
				if gen == m.gen {
					was, ok := m.decided[key]
					touch(m, key)
					m.decided[key] = decided || was
					if per := dc.shards[0].capacity; !ok && len(m.order) > per {
						delete(m.decided, m.order[per])
						m.order = m.order[:per]
						wantEvicted = 1
					}
				}
				if stale != (gen != m.gen) || evicted != wantEvicted {
					t.Fatalf("seed %d step %d: put %d evicted %d stale %v, model %d %v",
						seed, step, key, evicted, stale, wantEvicted, gen != m.gen)
				}
			}
			for i := range model {
				if got := lruKeys(&dc.shards[i]); !reflect.DeepEqual(got, append([]int{}, model[i].order...)) {
					t.Fatalf("seed %d step %d: shard %d recency order %v, model %v", seed, step, i, got, model[i].order)
				}
			}
		}
	}
}

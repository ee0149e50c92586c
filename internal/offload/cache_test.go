package offload

import (
	"fmt"
	"sync"
	"testing"

	"github.com/hybridsel/hybridsel/internal/attrdb"
)

// TestCacheShardLayout pins the shard-count selection: small capacities
// must collapse to a single shard (exact global LRU — the semantics the
// eviction tests and DecisionCacheSize documentation rely on), while the
// default capacity spreads across maxCacheShards shards of at least
// minShardCapacity entries each.
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
		dc := newDecisionCache(c.capacity)
		if got := len(dc.shards); got != c.shards {
			t.Errorf("capacity %d: %d shards, want %d", c.capacity, got, c.shards)
		}
		total := 0
		for i := range dc.shards {
			if dc.shards[i].capacity < minShardCapacity && len(dc.shards) > 1 {
				t.Errorf("capacity %d: shard capacity %d below minimum", c.capacity, dc.shards[i].capacity)
			}
			total += dc.shards[i].capacity
		}
		if total > c.capacity {
			t.Errorf("capacity %d: shard capacities sum to %d", c.capacity, total)
		}
	}
	if dc := newDecisionCache(-1); len(dc.shards) != 0 {
		t.Error("negative capacity did not disable the cache")
	}
	if dc := newDecisionCache(0); len(dc.shards) != 0 {
		t.Error("zero capacity did not disable the cache")
	}
}

// collidingEntry builds an entry whose 64-bit hash is forced to `hash`
// regardless of its key — the collision-injection device. The prediction
// encodes the key's index so a lookup can prove it got the right entry.
func collidingEntry(hash uint64, i int, decided bool) decisionEntry {
	e := decisionEntry{
		key:     fmt.Sprintf("n=%d;", i),
		hash:    hash,
		predCPU: float64(i),
		predGPU: float64(2 * i),
		decided: decided,
	}
	if decided {
		e.targetIdx = i % 2 // cpu/base for even keys, gpu/base for odd
	}
	return e
}

// TestCacheHashCollision injects entries with identical 64-bit hashes
// but distinct keys and asserts the cache never confuses them: lookups
// must confirm the stored key, eviction must unlink from the middle of a
// collision chain without corrupting it, and a duplicate put must
// replace in place rather than grow the chain.
func TestCacheHashCollision(t *testing.T) {
	dc := newDecisionCache(64) // 2 shards of 32
	const h = uint64(0xdeadbeef)
	for i := 0; i < 8; i++ {
		if ev := dc.put(collidingEntry(h, i, true)); ev != 0 {
			t.Fatalf("put %d evicted %d", i, ev)
		}
	}
	for i := 0; i < 8; i++ {
		ent, ok := dc.get(h, fmt.Sprintf("n=%d;", i))
		if !ok {
			t.Fatalf("entry %d lost in collision chain", i)
		}
		if ent.predCPU != float64(i) {
			t.Fatalf("entry %d served entry %v's prediction", i, ent.predCPU)
		}
	}
	if _, ok := dc.get(h, "n=99;"); ok {
		t.Fatal("hash-only match served a wrong key")
	}
	// A duplicate put replaces in place: the chain must not grow, and the
	// ledger must see no eviction.
	if ev := dc.put(collidingEntry(h, 3, true)); ev != 0 {
		t.Fatalf("duplicate put evicted %d", ev)
	}
	if got := dc.len(); got != 8 {
		t.Fatalf("len = %d after duplicate put, want 8", got)
	}
	// Preserve-decided: an undecided refresh must not erase a decision.
	undecided := collidingEntry(h, 3, false)
	dc.put(undecided)
	ent, ok := dc.get(h, "n=3;")
	if !ok || !ent.decided || ent.targetIdx != 1 {
		t.Fatalf("undecided refresh erased the decision: %+v", ent)
	}
	// Overflow the shard so eviction walks through the collision chain:
	// all entries share one hash, so every unlink exercises the
	// mid-chain removal path.
	shardCap := dc.shard(h).capacity
	evicted := 0
	for i := 8; i < shardCap+16; i++ {
		evicted += dc.put(collidingEntry(h, i, true))
	}
	if evicted != 16 {
		t.Fatalf("evicted %d, want 16", evicted)
	}
	if got := dc.len(); got != shardCap {
		t.Fatalf("len = %d, want shard capacity %d", got, shardCap)
	}
	// The survivors are exactly the most recently used; each must still
	// resolve to its own entry through the (long) collision chain.
	for i := 16; i < shardCap+16; i++ {
		ent, ok := dc.get(h, fmt.Sprintf("n=%d;", i))
		if !ok {
			t.Fatalf("MRU entry %d evicted", i)
		}
		if ent.predCPU != float64(i) {
			t.Fatalf("entry %d served entry %v's prediction", i, ent.predCPU)
		}
	}
	for i := 0; i < 16; i++ {
		if _, ok := dc.get(h, fmt.Sprintf("n=%d;", i)); ok {
			t.Fatalf("LRU entry %d not evicted", i)
		}
	}
}

// TestCacheGetVecCollision drives the hot-path (slot-vector) lookup
// through an injected collision: two binding vectors stored under the
// same forced hash must each resolve to their own entry via the in-place
// key comparison.
func TestCacheGetVecCollision(t *testing.T) {
	layout, err := attrdb.NewKeyLayout([]string{"n"})
	if err != nil {
		t.Fatal(err)
	}
	dc := newDecisionCache(64)
	const h = uint64(42)
	for _, n := range []int64{7, 1000} {
		dc.put(decisionEntry{
			key:     layout.Key([]int64{n}),
			hash:    h, // forced collision: real hashes of 7 and 1000 differ
			predCPU: float64(n),
		})
	}
	for _, n := range []int64{7, 1000} {
		ent, ok := dc.getVec(h, layout, []int64{n})
		if !ok {
			t.Fatalf("n=%d lost in collision chain", n)
		}
		if ent.predCPU != float64(n) {
			t.Fatalf("n=%d served entry %v", n, ent.predCPU)
		}
	}
	if _, ok := dc.getVec(h, layout, []int64{8}); ok {
		t.Fatal("hash-only match served a wrong vector")
	}
}

// TestCacheConcurrentCollisionStress hammers one cache from many
// goroutines with entries that all collide into a handful of hashes
// (and therefore shards), interleaving put, get, getVec, clear and len.
// The invariant under test — checked on every hit — is that a lookup
// never serves another key's entry, no matter how contended the chain.
// Run under -race via `make check`.
func TestCacheConcurrentCollisionStress(t *testing.T) {
	layout, err := attrdb.NewKeyLayout([]string{"n"})
	if err != nil {
		t.Fatal(err)
	}
	dc := newDecisionCache(256) // 8 shards of 32
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
					dc.put(collidingEntry(h, n, true))
				case 1:
					if ent, ok := dc.get(h, fmt.Sprintf("n=%d;", n)); ok {
						if ent.predCPU != float64(n) {
							t.Errorf("get n=%d served %v", n, ent.predCPU)
							return
						}
						if ent.decided && ent.targetIdx != n%2 {
							t.Errorf("get n=%d served wrong target %v", n, ent.targetIdx)
							return
						}
					}
				case 2:
					if ent, ok := dc.getVec(h, layout, []int64{int64(n)}); ok {
						if ent.predCPU != float64(n) {
							t.Errorf("getVec n=%d served %v", n, ent.predCPU)
							return
						}
					}
				case 3:
					dc.put(collidingEntry(h, n, false))
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

// TestCacheNodeReuse: a full shard stores a new key in the node it
// evicts, and that must never be observable. An entry get copied out
// before its node was evicted and reused is unchanged (its candidate
// slice included), the evicted keys are gone, the new ones read back as
// put, and the stores allocated no node.
func TestCacheNodeReuse(t *testing.T) {
	dc := newDecisionCache(2)
	entry := func(i int) decisionEntry {
		e := collidingEntry(uint64(i), i, true)
		e.cands = []Candidate{{Target: fmt.Sprintf("t%d", i), PredSeconds: float64(i)}}
		return e
	}
	dc.put(entry(1))
	dc.put(entry(2))
	held, ok := dc.get(1, entry(1).key) // promotes 1: the next victim is 2
	if !ok {
		t.Fatal("entry 1 missing")
	}
	victim, ok := dc.get(2, entry(2).key)
	if !ok {
		t.Fatal("entry 2 missing")
	}
	dc.get(1, entry(1).key)

	// Eleven more keys through the two nodes (AllocsPerRun calls once to
	// warm up): the first evicts 2 and moves into its node.
	var fresh []decisionEntry
	for i := 3; i < 14; i++ {
		fresh = append(fresh, entry(i))
	}
	evicted, next := 0, 0
	if allocs := testing.AllocsPerRun(10, func() {
		evicted += dc.put(fresh[next])
		next++
	}); allocs != 0 {
		t.Errorf("put into a full shard allocated %v times, want 0 (the evicted node is reused)", allocs)
	}
	if evicted != len(fresh) || dc.len() != 2 {
		t.Fatalf("evicted %d, %d live entries; want %d and 2", evicted, dc.len(), len(fresh))
	}
	for _, i := range []int{1, 2, 11} {
		if _, ok := dc.get(uint64(i), entry(i).key); ok {
			t.Fatalf("evicted entry %d still served", i)
		}
	}
	for _, i := range []int{12, 13} {
		if got, ok := dc.get(uint64(i), entry(i).key); !ok || got.predCPU != float64(i) || got.cands[0].Target != fmt.Sprintf("t%d", i) {
			t.Fatalf("entry %d read back as %+v, %v", i, got, ok)
		}
	}
	if want := entry(2); victim.key != want.key || victim.predCPU != want.predCPU ||
		victim.targetIdx != want.targetIdx || len(victim.cands) != 1 || victim.cands[0] != want.cands[0] {
		t.Fatalf("the copy of entry 2 taken before its node was reused changed: %+v", victim)
	}
	if want := entry(1); held.key != want.key || held.cands[0] != want.cands[0] {
		t.Fatalf("the copy of entry 1 changed: %+v", held)
	}
}

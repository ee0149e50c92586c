package offload

import (
	"math"
	"sync"
)

// verdict is the scalar half of a memoized decision; the per-target
// seconds travel beside it as two registry-ordered slices.
type verdict struct {
	// decided is set once the policy has run on the key — Predict alone
	// stores the prediction half, so a later Launch still skips the model
	// evaluation.
	decided bool
	// targetIdx is the chosen target's registry index (Registry.Len() for
	// a split, the pseudo-target's dispatch slot).
	targetIdx int
	// frac is the host share chosen by a split decision (0 otherwise).
	frac float64
	// prov is the decision's provenance, so cache hits report the
	// correction stage that produced the memoized verdict.
	prov string
}

// decisionCache is a region's store of memoized decisions: a power-of-two
// sharded, exact-LRU table keyed by the launch's parameter values. Shards
// lock independently, so concurrent launches with different bindings
// rarely contend.
//
// A shard keeps its entries back to back in one []uint64 slab, finds them
// through an open-addressed index of entry numbers and orders them with
// entry-number links inside the entries themselves, so the store holds no
// pointer — the collector never scans it — and storing allocates nothing
// once the slab has grown to the shard's capacity: a full shard's new key
// moves into the entry it evicts. An entry is entryHeader words, the key's
// values, then every target's raw and calibrated seconds in registry
// order. A lookup compares the 64-bit hash and then the values themselves,
// as integers, so correctness never rides on the hash. The ranking is not
// stored: it is a function of the calibrated seconds (rankCandidates).
//
// Small capacities collapse to a single shard so the configured bound
// behaves as one exact global LRU (the semantics the eviction tests and
// the DecisionCacheSize documentation promise); larger caches split into
// up to maxCacheShards shards of at least minShardCapacity entries each.
type decisionCache struct {
	shards []cacheShard
	mask   uint64
}

const (
	maxCacheShards   = 16
	minShardCapacity = 32
)

// The words of an entry. Links and index slots name an entry by its
// number in the slab plus one; zero is "none". An index slot carries the
// entry's tag — the upper half of its mixed hash, whose top bits are its
// home slot — above the number, so probing and deleting read the slab only
// where the tag matches.
const (
	wHash  = iota
	wLinks // LRU neighbours: previous (towards the head) <<32 | next
	wMeta  // chosen index <<32 | provenance index <<8 | decided
	wFrac
	entryHeader
)

// cacheShard is one independently locked slice of the cache.
type cacheShard struct {
	mu       sync.Mutex
	capacity int
	// gen counts clears. get hands it to the put that follows a miss, and
	// put drops an entry priced before a clear it was stored after.
	gen uint64

	nvals, stride int      // values per key; words per entry
	slab          []uint64 // size entries, grown on demand up to capacity
	index         []uint64 // tag<<32 | entry; at most half full, so probe runs stay short
	shift         uint     // 32 - log2(len(index))
	head, tail    uint32   // head = most recently used
	size          int
	provs         []string // the provenance strings entries index
}

// newDecisionCache sizes a cache of capacity entries (none when it is not
// positive) for keys of nvals values over ntargets targets.
func newDecisionCache(capacity, nvals, ntargets int) *decisionCache {
	if capacity <= 0 {
		return &decisionCache{}
	}
	nshards := 1
	for nshards*2 <= maxCacheShards && capacity/(nshards*2) >= minShardCapacity {
		nshards *= 2
	}
	c := &decisionCache{
		shards: make([]cacheShard, nshards),
		mask:   uint64(nshards - 1),
	}
	per := capacity / nshards
	bits := uint(1)
	for 1<<bits < 2*per {
		bits++
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity, s.nvals, s.stride = per, nvals, entryHeader+nvals+2*ntargets
		s.index, s.shift = make([]uint64, 1<<bits), 32-bits
	}
	return c
}

func (c *decisionCache) shard(hash uint64) *cacheShard {
	return &c.shards[hash&c.mask]
}

func (s *cacheShard) entry(e uint32) []uint64 {
	b := int(e-1) * s.stride
	return s.slab[b : b+s.stride]
}

// tagOf mixes hash — the shard took its low bits — into the tag an index
// slot carries; home is where the probe for a tag starts.
func tagOf(hash uint64) uint32 { return uint32(hash * 0x9e3779b97f4a7c15 >> 32) }

func (s *cacheShard) home(tag uint32) int { return int(tag >> s.shift) }

// find probes for (hash, vals) and returns its entry, or 0 and the index
// slot a new entry for the key goes into. Caller holds s.mu.
func (s *cacheShard) find(hash uint64, vals []int64) (e uint32, slot int) {
	tag := tagOf(hash)
	for slot = s.home(tag); ; slot = (slot + 1) & (len(s.index) - 1) {
		v := s.index[slot]
		if v == 0 {
			return 0, slot
		}
		if uint32(v>>32) != tag {
			continue
		}
		if ent := s.entry(uint32(v)); ent[wHash] == hash && equalVals(ent[entryHeader:entryHeader+s.nvals], vals) {
			return uint32(v), slot
		}
	}
}

func equalVals(stored []uint64, vals []int64) bool {
	for i, v := range vals {
		if stored[i] != uint64(v) {
			return false
		}
	}
	return true
}

// unindex empties the index slot holding e, moving back every later entry
// of the probe run that the hole would cut off from its home. Caller
// holds s.mu.
func (s *cacheShard) unindex(e uint32) {
	mask := len(s.index) - 1
	i := s.home(tagOf(s.entry(e)[wHash]))
	for uint32(s.index[i]) != e {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		// The entry at j stays when its home lies cyclically in (i, j].
		if k := s.home(uint32(s.index[j] >> 32)); (k-i-1)&mask >= (j-i)&mask {
			s.index[i], i = s.index[j], j
		}
	}
	s.index[i] = 0
}

// detach takes e out of the LRU list, pushFront puts it at the head,
// promote moves it there. Caller holds s.mu.
func (s *cacheShard) detach(e uint32) {
	links := s.entry(e)[wLinks]
	prev, next := uint32(links>>32), uint32(links)
	if prev != 0 {
		p := s.entry(prev)
		p[wLinks] = p[wLinks]&^math.MaxUint32 | uint64(next)
	} else {
		s.head = next
	}
	if next != 0 {
		n := s.entry(next)
		n[wLinks] = n[wLinks]&math.MaxUint32 | uint64(prev)<<32
	} else {
		s.tail = prev
	}
}

func (s *cacheShard) pushFront(e uint32) {
	s.entry(e)[wLinks] = uint64(s.head)
	if s.head != 0 {
		h := s.entry(s.head)
		h[wLinks] = h[wLinks]&math.MaxUint32 | uint64(e)<<32
	} else {
		s.tail = e
	}
	s.head = e
}

func (s *cacheShard) promote(e uint32) {
	if s.head != e {
		s.detach(e)
		s.pushFront(e)
	}
}

// get looks the key up and, when it is there, promotes it to most recently
// used, copies its per-target seconds into pred and cal and returns the
// rest. Hit or miss, it reports the shard's generation for the put that
// may follow.
func (c *decisionCache) get(hash uint64, vals []int64, pred, cal []float64) (v verdict, gen uint64, ok bool) {
	if len(c.shards) == 0 {
		return verdict{}, 0, false
	}
	s := c.shard(hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, _ := s.find(hash, vals)
	if e == 0 {
		return verdict{}, s.gen, false
	}
	s.promote(e)
	ent := s.entry(e)
	secs := ent[entryHeader+s.nvals:]
	for i := range pred {
		pred[i], cal[i] = math.Float64frombits(secs[i]), math.Float64frombits(secs[len(pred)+i])
	}
	meta := ent[wMeta]
	return verdict{decided: meta&1 != 0, targetIdx: int(meta >> 32),
		frac: math.Float64frombits(ent[wFrac]), prov: s.provs[meta>>8&0xffffff]}, s.gen, true
}

// put inserts (or refreshes) the key's entry, evicting the least recently
// used one when its shard is full, and reports how many were evicted. An
// existing decided entry is preserved against an undecided refresh for the
// same key (Predict must not erase a Launch's decision); the check is
// atomic with the insert under the shard lock. gen is what the get that
// missed reported: when the shard has been cleared since, what was priced
// is older than the invalidation, and put drops it and reports it stale.
func (c *decisionCache) put(hash uint64, vals []int64, pred, cal []float64, v verdict, gen uint64) (evicted int, stale bool) {
	if len(c.shards) == 0 {
		return 0, false
	}
	s := c.shard(hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	if gen != s.gen {
		return 0, true
	}
	e, slot := s.find(hash, vals)
	if e != 0 {
		s.promote(e)
		if s.entry(e)[wMeta]&1 != 0 && !v.decided {
			return 0, false
		}
	} else {
		if s.size < s.capacity {
			s.size++
			e = uint32(s.size)
			if need := s.size * s.stride; need > cap(s.slab) {
				grown := make([]uint64, need, min(max(2*need, 8*s.stride), s.capacity*s.stride))
				copy(grown, s.slab)
				s.slab = grown
			} else {
				s.slab = s.slab[:need]
			}
		} else {
			// The entry a full shard evicts is the one the new key moves into.
			e, evicted = s.tail, 1
			s.unindex(e)
			s.detach(e)
			_, slot = s.find(hash, vals)
		}
		s.index[slot] = uint64(tagOf(hash))<<32 | uint64(e)
		s.pushFront(e)
	}
	prov := 0
	for prov < len(s.provs) && s.provs[prov] != v.prov {
		prov++
	}
	if prov == len(s.provs) {
		s.provs = append(s.provs, v.prov)
	}
	ent := s.entry(e)
	ent[wHash] = hash
	ent[wMeta] = uint64(v.targetIdx)<<32 | uint64(prov)<<8
	if v.decided {
		ent[wMeta] |= 1
	}
	ent[wFrac] = math.Float64bits(v.frac)
	for i, x := range vals {
		ent[entryHeader+i] = uint64(x)
	}
	secs := ent[entryHeader+s.nvals:]
	for i := range pred {
		secs[i], secs[len(pred)+i] = math.Float64bits(pred[i]), math.Float64bits(cal[i])
	}
	return evicted, false
}

// clear drops every entry (profiling or calibration changed the model
// inputs) and starts a new generation in every shard. Only the index is
// reset: the slab keeps its storage for the entries to come.
func (c *decisionCache) clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.gen++
		if s.size > 0 {
			clear(s.index)
			s.head, s.tail, s.size, s.slab, s.provs = 0, 0, 0, s.slab[:0], s.provs[:0]
		}
		s.mu.Unlock()
	}
}

// len reports the number of live entries across shards.
func (c *decisionCache) len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.size
		s.mu.Unlock()
	}
	return total
}

package offload

import (
	"sync"

	"github.com/hybridsel/hybridsel/internal/attrdb"
)

// decisionEntry is one memoized model evaluation, keyed by the canonical
// encoding of the launch bindings (and its 64-bit hash). The ranked
// candidates are always present; the decided target (and split fraction)
// is filled the first time a Launch completes the policy decision for
// the key — Predict alone stores the prediction half so a later Launch
// still skips the model evaluation.
type decisionEntry struct {
	key  string
	hash uint64
	// cands is the ranked candidate list (ascending calibrated seconds).
	// The slice is immutable once stored: hits share it (get copies the
	// entry struct, not the slice), and refreshes replace the whole
	// slice — concurrent readers keep their old snapshot.
	cands []Candidate
	// predCPU/predGPU are the raw predictions of the base CPU/GPU-kind
	// targets (0 when the registry has none), kept denormalized so the
	// hot hit path fills the legacy Decision fields without scanning.
	predCPU, predGPU float64

	// decided is set once a Launch has run the policy on this key.
	decided bool
	// targetIdx is the chosen target's registry index (Registry.Len() for
	// a split, the pseudo-target's dispatch slot).
	targetIdx int
	// frac is the host share chosen by a split decision (0 otherwise).
	frac float64
	// prov is the decision's provenance (set with decided), so cache hits
	// report the correction stage that produced the memoized verdict.
	prov string
}

// cacheNode is an entry's residence in one shard: an intrusive LRU link
// plus a hash-collision chain (64-bit FNV collisions are vanishingly
// rare, but correctness cannot ride on that).
type cacheNode struct {
	entry      decisionEntry
	prev, next *cacheNode // LRU list; nil-terminated
	chain      *cacheNode // next node with the same 64-bit hash
}

// cacheShard is one independently locked slice of the cache: a bounded
// LRU indexed by the bindings hash.
type cacheShard struct {
	mu         sync.Mutex
	capacity   int
	index      map[uint64]*cacheNode
	head, tail *cacheNode // head = most recently used
	size       int
}

// decisionCache is a power-of-two sharded, hash-keyed LRU of
// decisionEntry. Shards lock independently, so concurrent launches with
// different bindings rarely contend; the hot lookup path needs only the
// 64-bit hash and a slot vector (no key-string allocation), with the
// stored key confirming against genuine hash collisions.
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

func newDecisionCache(capacity int) *decisionCache {
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
	for i := range c.shards {
		c.shards[i].capacity = per
		c.shards[i].index = make(map[uint64]*cacheNode, per)
	}
	return c
}

func (c *decisionCache) shard(hash uint64) *cacheShard {
	return &c.shards[hash&c.mask]
}

// find walks the collision chain for hash; match reports whether a
// node's key is the one sought. Caller holds s.mu.
func (s *cacheShard) find(hash uint64, key string) *cacheNode {
	for n := s.index[hash]; n != nil; n = n.chain {
		if n.entry.key == key {
			return n
		}
	}
	return nil
}

// promote moves n to the LRU front. Caller holds s.mu.
func (s *cacheShard) promote(n *cacheNode) {
	if s.head == n {
		return
	}
	// Unlink.
	if n.prev != nil {
		n.prev.next = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	}
	if s.tail == n {
		s.tail = n.prev
	}
	// Push front.
	n.prev = nil
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}

// unlink removes n from both the LRU list and the hash index. Caller
// holds s.mu.
func (s *cacheShard) unlink(n *cacheNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
	h := n.entry.hash
	if s.index[h] == n {
		if n.chain != nil {
			s.index[h] = n.chain
		} else {
			delete(s.index, h)
		}
	} else {
		for p := s.index[h]; p != nil; p = p.chain {
			if p.chain == n {
				p.chain = n.chain
				break
			}
		}
	}
	n.chain = nil
	s.size--
}

// get returns (a copy of) the entry for (hash, key), promoting it to
// most-recently-used.
func (c *decisionCache) get(hash uint64, key string) (decisionEntry, bool) {
	if len(c.shards) == 0 {
		return decisionEntry{}, false
	}
	s := c.shard(hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.find(hash, key)
	if n == nil {
		return decisionEntry{}, false
	}
	s.promote(n)
	return n.entry, true
}

// getVec is get for the hot path: the caller has only the slot vector
// and its hash, and the stored key string is compared in place via the
// layout — no key allocation on a hit.
func (c *decisionCache) getVec(hash uint64, l *attrdb.KeyLayout, vals []int64) (decisionEntry, bool) {
	if len(c.shards) == 0 {
		return decisionEntry{}, false
	}
	s := c.shard(hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	for n := s.index[hash]; n != nil; n = n.chain {
		if l.MatchesKey(n.entry.key, vals) {
			s.promote(n)
			return n.entry, true
		}
	}
	return decisionEntry{}, false
}

// put inserts (or refreshes) an entry, evicting least-recently-used
// entries when its shard is over capacity, and reports how many were
// evicted. An existing decided entry is preserved against an undecided
// refresh for the same key (Predict must not erase a Launch's decision);
// the check is atomic with the insert under the shard lock.
func (c *decisionCache) put(e decisionEntry) int {
	if len(c.shards) == 0 {
		return 0
	}
	s := c.shard(e.hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.find(e.hash, e.key); n != nil {
		if !(n.entry.decided && !e.decided) {
			n.entry = e
		}
		s.promote(n)
		return 0
	}
	// Make room first: the node a full shard evicts is the node the new
	// entry moves into. Nodes never leave the cache (get copies entries out).
	var n *cacheNode
	evicted := 0
	for s.size >= s.capacity && s.tail != nil {
		n = s.tail
		s.unlink(n)
		evicted++
	}
	if n == nil {
		n = new(cacheNode)
	}
	n.entry = e
	n.chain = s.index[e.hash]
	s.index[e.hash] = n
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
	s.size++
	return evicted
}

// clear drops every entry (used when profiling or calibration changes
// the model inputs).
func (c *decisionCache) clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		clear(s.index)
		s.head, s.tail, s.size = nil, nil, 0
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

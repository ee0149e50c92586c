package client

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hybridsel/hybridsel/internal/offload"
)

// This file is the launch-site half of a decision: an endpoint's leases,
// verdicts its daemon answered on the stream at a stamped epoch, which the
// client serves again with no network call while the epoch stands and the
// lease is young (DESIGN.md §16).

const (
	// leaseFor bounds a lease's life: the staleness a push lost to a silent
	// partition can cost, and the longest a hot key goes unseen by its daemon.
	leaseFor = 100 * time.Millisecond
	// leaseSlots is an endpoint's table size, in sets of two: a third key of
	// a set costs one of the others a network call, never a verdict.
	leaseSlots = 1024
)

// Slab sizes. 131 Verdicts (208 B each) and 567 candidates (48 B) fill the
// allocator's 27264-byte size class, its 8-byte header included, to within
// 0.2 %: a leased copy costs no more bytes than allocating its Verdict and
// Candidates one by one would.
const (
	verdictSlab = 131
	candSlab    = 567
)

// leaseClock is the base lease expiries are measured from: time.Since of it
// is one read of the monotonic clock, where time.Now makes two.
var leaseClock = time.Now()

// lease is one verdict a stream connection answered, stamped with the
// daemon's epoch; immutable once stored. It is valid while conn is usable
// and has heard of no newer epoch, and until until.
type lease struct {
	region string
	hash   uint64
	names  []string // the canonical bindings
	values []int64
	conn   *StreamConn
	epoch  uint64
	until  time.Duration // since leaseClock
	held                 // the verdict, stamped as served from the lease
	// What names and values point into, up to four each: one allocation.
	nbuf [4]string
	vbuf [4]int64
}

// leases is an endpoint's lease table, and the slabs the copies it serves
// are cut from. A served copy is the caller's own: no other caller is handed
// its Verdict or its candidates, and its Candidates has len == cap, so an
// append moves it away rather than writing over a neighbour's. Keeping one
// keeps its slab alive, as a stream response does (DESIGN.md §14).
type leases struct {
	slots    [leaseSlots]atomic.Pointer[lease]
	verdicts arena[Verdict]
	cands    arena[offload.Candidate]
}

// leaseSet returns the first slot of a ring key's set.
func leaseSet(key uint64) int {
	return int(key%(leaseSlots/2)) * 2
}

// holds reports whether l leases the canonical request.
func (l *lease) holds(region string, hash uint64, names []string, values []int64) bool {
	return l != nil && l.hash == hash && l.region == region && slices.Equal(l.values, values) && slices.Equal(l.names, names)
}

// get returns a copy of the verdict a valid lease holds for the canonical
// request, cut from the slabs, or nil.
func (ls *leases) get(region string, k canon) *Verdict {
	s := leaseSet(k.key)
	l := ls.slots[s].Load()
	if !l.holds(region, k.hash, k.names, k.values) {
		l = ls.slots[s+1].Load()
	}
	if !l.holds(region, k.hash, k.names, k.values) || !l.conn.Usable() || l.conn.epoch.Load() != l.epoch ||
		time.Since(leaseClock) >= l.until {
		return nil
	}
	v := &ls.verdicts.cut(1, verdictSlab)[0]
	*v = l.vs[0]
	v.Response.Candidates = ls.cands.cut(len(v.Response.Candidates), candSlab)
	copy(v.Response.Candidates, l.vs[0].Response.Candidates)
	return v
}

// held is a verdict with up to four candidates inline: one allocation.
type held struct {
	vs    [1]Verdict
	cands [4]offload.Candidate
}

// keep makes h a copy of v and returns it.
func (h *held) keep(v *Verdict) *Verdict {
	h.vs[0] = *v
	h.vs[0].Response.Candidates = append(h.cands[:0:min(len(h.cands), len(v.Response.Candidates))], v.Response.Candidates...)
	return &h.vs[0]
}

// grant leases v, the verdict of the single a that sc answered stamped
// epoch, on behalf of replica — if that is still the newest epoch the
// connection has heard of. A leased copy claims a cache hit decided in no
// time: a repeat asks the daemon nothing. The lease takes the slot of its
// set that holds its key, else the one whose lease lapses first.
func (ls *leases) grant(a *ask, sc *StreamConn, epoch uint64, v *Verdict, replica string) {
	if epoch == 0 || epoch != sc.epoch.Load() {
		return
	}
	g := &lease{region: a.req[0].Region, hash: a.hash, conn: sc, epoch: epoch, until: time.Since(leaseClock) + leaseFor}
	g.names, g.values, v = append(g.nbuf[:0], a.names...), append(g.vbuf[:0], a.wr.Values...), g.keep(v)
	v.Response.CacheHit, v.Response.DecisionNanos = true, 0
	v.Provenance, v.Attempts, v.Coalesced, v.Transport, v.Replica = ProvenanceRemote, 0, false, TransportLease, replica
	s := leaseSet(a.key)
	if first := ls.slots[s].Load(); first != nil && !first.holds(g.region, g.hash, g.names, g.values) {
		if second := ls.slots[s+1].Load(); second == nil || second.until < first.until ||
			second.holds(g.region, g.hash, g.names, g.values) {
			s++
		}
	}
	ls.slots[s].Store(g)
}

// arena hands out cuts of slabs of T, safe for concurrent use. No cut is
// handed out twice.
type arena[T any] struct {
	mu   sync.Mutex
	rest []T // what is left of the current slab
}

// cut returns n elements, len == cap, of a slab of size elements (of their
// own when n exceeds it).
func (a *arena[T]) cut(n, size int) []T {
	if n > size {
		return make([]T, n)
	}
	a.mu.Lock()
	if len(a.rest) < n {
		a.rest = make([]T, size)
	}
	c := a.rest[:n:n]
	a.rest = a.rest[n:]
	a.mu.Unlock()
	return c
}

package client

import (
	"slices"
	"sync/atomic"
	"time"

	"github.com/hybridsel/hybridsel/internal/cluster"
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
	until  time.Time
	held   // the verdict, stamped as served from the lease
	// What names and values point into, up to four each: one allocation.
	nbuf [4]string
	vbuf [4]int64
}

// leases is an endpoint's lease table.
type leases [leaseSlots]atomic.Pointer[lease]

// set returns the first slot of the key's set.
func (ls *leases) set(region string, hash uint64) int {
	return int(cluster.RegionKey(region, hash)%(leaseSlots/2)) * 2
}

// holds reports whether l leases the canonical request.
func (l *lease) holds(region string, hash uint64, names []string, values []int64) bool {
	return l != nil && l.hash == hash && l.region == region && slices.Equal(l.values, values) && slices.Equal(l.names, names)
}

// get returns a copy of the verdict a valid lease holds for the canonical
// request, in one allocation, or nil.
func (ls *leases) get(region string, hash uint64, names []string, values []int64) *Verdict {
	s := ls.set(region, hash)
	l := ls[s].Load()
	if !l.holds(region, hash, names, values) {
		l = ls[s+1].Load()
	}
	if !l.holds(region, hash, names, values) || !l.conn.Usable() || l.conn.epoch.Load() != l.epoch ||
		!time.Now().Before(l.until) {
		return nil
	}
	return new(held).keep(&l.vs[0])
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
	g := &lease{region: a.req[0].Region, hash: a.hash, conn: sc, epoch: epoch, until: time.Now().Add(leaseFor)}
	g.names, g.values, v = append(g.nbuf[:0], a.names...), append(g.vbuf[:0], a.wr.Values...), g.keep(v)
	v.Response.CacheHit, v.Response.DecisionNanos = true, 0
	v.Provenance, v.Attempts, v.Coalesced, v.Transport, v.Replica = ProvenanceRemote, 0, false, TransportLease, replica
	s := ls.set(g.region, g.hash)
	if first := ls[s].Load(); first != nil && !first.holds(g.region, g.hash, g.names, g.values) {
		if second := ls[s+1].Load(); second == nil || second.until.Before(first.until) ||
			second.holds(g.region, g.hash, g.names, g.values) {
			s++
		}
	}
	ls[s].Store(g)
}

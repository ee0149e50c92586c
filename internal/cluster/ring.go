// Package cluster shards the decision plane across replicas: a
// consistent-hash ring assigns every (region, bindings) key an owner
// replica and a deterministic successor order, and a lightweight gossip
// layer spreads member health plus versioned replica state (calibration
// factors, learner snapshots) so any replica can serve any key warm.
//
// Membership is static-seed: the replica set is configuration, the ring
// is a pure function of it, and every replica computes the identical
// ring. Gossip never changes ownership — it only annotates members with
// health (alive, suspect, dead) that the cluster client uses to order
// failover, and piggybacks state so a failover target answers with the
// same corrections the owner would have used.
package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
)

// defaultVnodes is the virtual-node count per member. Per-member share
// variance shrinks as 1/sqrt(vnodes); 1024 points keeps every member
// within a few percent of fair share for small clusters while ring
// construction stays trivially cheap. It is a constant, not an option: a
// replica and the clients routing to it must build the same ring.
const defaultVnodes = 1024

// fnv-1a, the same hash family attrdb uses for binding keys.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// mix64 is a SplitMix64-style finalizer. FNV-1a of short, similar
// strings ("node-a#17") leaves the high bits poorly mixed, which skews
// vnode placement; the avalanche pass makes point positions effectively
// uniform so member shares concentrate around fair.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// RegionKey maps a decision point — region name plus
// attrdb.BindingsHash of its bindings — onto the ring keyspace. Every
// replica computes the same key for the same point, so routing needs no
// coordination.
func RegionKey(region string, bindingsHash uint64) uint64 {
	h := fnvString(uint64(fnvOffset), region)
	for i := 0; i < 64; i += 8 {
		h ^= (bindingsHash >> i) & 0xff
		h *= fnvPrime
	}
	return mix64(h)
}

// Ring is a consistent-hash ring over a fixed member set. It is
// immutable after construction; membership changes build a new ring.
type Ring struct {
	ids    []string // sorted, deduplicated member IDs
	vnodes int
	points []point // sorted by hash
}

// point is a virtual node: its position and the index of its member in ids.
type point struct {
	hash   uint64
	member int
}

// NewRing builds a ring with vnodes virtual nodes per member; 0 (or less)
// selects the constant every production ring uses, and only tests pass
// anything else. IDs are deduplicated; at least one is required. Given the
// same IDs and vnodes, every caller builds the identical ring whatever the
// input order.
func NewRing(ids []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	seen := make(map[string]bool, len(ids))
	sorted := make([]string, 0, len(ids))
	for _, id := range ids {
		if id == "" {
			return nil, fmt.Errorf("cluster: empty member ID")
		}
		if !seen[id] {
			seen[id] = true
			sorted = append(sorted, id)
		}
	}
	if len(sorted) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	slices.Sort(sorted)
	r := &Ring{ids: sorted, vnodes: vnodes, points: make([]point, 0, len(sorted)*vnodes)}
	for m, id := range sorted {
		// Each virtual node hashes "id#k". Ties across members are
		// broken by ID — the member index, ids being sorted — so the
		// point order is total and deterministic.
		base := fnvString(uint64(fnvOffset), id)
		for k := 0; k < vnodes; k++ {
			h := mix64(fnvString(fnvString(base, "#"), strconv.Itoa(k)))
			r.points = append(r.points, point{hash: h, member: m})
		}
	}
	slices.SortFunc(r.points, func(a, b point) int {
		return cmp.Or(cmp.Compare(a.hash, b.hash), cmp.Compare(a.member, b.member))
	})
	return r, nil
}

// Members returns the ring's member IDs, sorted. The slice is shared;
// callers must not mutate it.
func (r *Ring) Members() []string { return r.ids }

// at returns the index of the first ring point at or after key,
// wrapping past the top of the keyspace.
func (r *Ring) at(key uint64) int {
	lo, hi := 0, len(r.points)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.points[m].hash < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(r.points) {
		lo = 0
	}
	return lo
}

// Owner returns the member owning key: the member whose virtual node is
// first at or clockwise-after the key.
func (r *Ring) Owner(key uint64) string {
	return r.ids[r.points[r.at(key)].member]
}

// Successors appends every member to dst, as its index in Members(), in
// ring order starting at the key's owner: the owner first, then the
// members whose virtual nodes follow clockwise. This is the deterministic
// failover order for the key — every replica computes the same list.
// With room in dst it allocates nothing.
func (r *Ring) Successors(dst []int, key uint64) []int {
	first := len(dst)
	for i := r.at(key); len(dst)-first < len(r.ids); i++ {
		if i == len(r.points) {
			i = 0
		}
		if m := r.points[i].member; !slices.Contains(dst[first:], m) {
			dst = append(dst, m)
		}
	}
	return dst
}

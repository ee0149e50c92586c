package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"
)

// ringSeed keeps the property tests deterministic: same keys, same
// verdicts, every run.
const ringSeed = 0x5eed10

func sampleKeys(n int) []uint64 {
	rng := rand.New(rand.NewSource(ringSeed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	return keys
}

func memberIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("node-%c", 'a'+i)
	}
	return ids
}

// TestRingOwnershipDeterministic: two replicas building the ring from
// the same membership — in any order — must agree on every key's owner
// and successor list. This is the property that lets routing run with
// no coordination at all.
func TestRingOwnershipDeterministic(t *testing.T) {
	ids := memberIDs(5)
	shuffled := []string{ids[3], ids[0], ids[4], ids[4], ids[1], ids[2]} // reordered + dup
	a, err := NewRing(ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(shuffled, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Members(), b.Members()) {
		t.Fatalf("member sets differ: %v vs %v", a.Members(), b.Members())
	}
	for _, key := range sampleKeys(2000) {
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("owner disagreement for %#x: %s vs %s", key, a.Owner(key), b.Owner(key))
		}
		sa, sb := a.Successors(nil, key), b.Successors(nil, key)
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("successor disagreement for %#x: %v vs %v", key, sa, sb)
		}
		if a.Members()[sa[0]] != a.Owner(key) {
			t.Fatalf("successors[0] = %s, want owner %s", a.Members()[sa[0]], a.Owner(key))
		}
		seen := map[int]bool{}
		for _, m := range sa {
			if seen[m] {
				t.Fatalf("duplicate member %d in successors %v", m, sa)
			}
			seen[m] = true
		}
		if len(sa) != len(ids) {
			t.Fatalf("successors %v of %d members", sa, len(ids))
		}
	}
}

// TestRingRebalanceBound: removing one member must move exactly that
// member's keys (everyone else's stay put), and adding one must move at
// most K/N plus slack — the consistent-hashing contract that a
// membership change does not reshuffle the world.
func TestRingRebalanceBound(t *testing.T) {
	ids := memberIDs(5)
	keys := sampleKeys(20000)
	full, err := NewRing(ids, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Leave: drop node-c.
	without, err := NewRing(append(append([]string{}, ids[:2]...), ids[3:]...), 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, key := range keys {
		was, now := full.Owner(key), without.Owner(key)
		if was != now {
			moved++
			if was != "node-c" {
				t.Fatalf("leave moved a key owned by %s (to %s); only node-c keys may move", was, now)
			}
		}
	}
	if moved == 0 {
		t.Fatal("leave moved no keys; node-c owned nothing?")
	}

	// Join: add a sixth member. At most ~K/N keys (the new member's fair
	// share) may move, all of them to the joiner.
	joined, err := NewRing(append(append([]string{}, ids...), "node-f"), 0)
	if err != nil {
		t.Fatal(err)
	}
	moved = 0
	for _, key := range keys {
		was, now := full.Owner(key), joined.Owner(key)
		if was != now {
			moved++
			if now != "node-f" {
				t.Fatalf("join moved a key from %s to %s; keys may only move to the joiner", was, now)
			}
		}
	}
	fair := len(keys) / len(joined.Members())
	slack := fair / 4 // vnode placement variance allowance
	if moved > fair+slack {
		t.Fatalf("join moved %d keys, want <= %d (K/N %d + slack %d)", moved, fair+slack, fair, slack)
	}
	if moved == 0 {
		t.Fatal("join moved no keys; node-f owns nothing?")
	}
}

// TestRingVnodeFairness: with default virtual-node weighting every
// member's share of the keyspace stays within ±10% of fair.
func TestRingVnodeFairness(t *testing.T) {
	for _, members := range []int{3, 5, 8} {
		ids := memberIDs(members)
		r, err := NewRing(ids, 0)
		if err != nil {
			t.Fatal(err)
		}
		keys := sampleKeys(100000)
		counts := map[string]int{}
		for _, key := range keys {
			counts[r.Owner(key)]++
		}
		fair := float64(len(keys)) / float64(members)
		for _, id := range ids {
			share := float64(counts[id]) / fair
			if share < 0.9 || share > 1.1 {
				t.Errorf("%d members: %s owns %.1f%% of fair share, want within ±10%%",
					members, id, share*100)
			}
		}
	}
}

// TestRegionKeyDeterministic: the routing key is a pure function of the
// decision point, and distinct points spread across the keyspace.
func TestRegionKeyDeterministic(t *testing.T) {
	if RegionKey("gemm", 42) != RegionKey("gemm", 42) {
		t.Fatal("RegionKey is not deterministic")
	}
	seen := map[uint64]string{}
	for _, region := range []string{"gemm", "mvt1", "atax", "gesummv"} {
		for h := uint64(0); h < 64; h++ {
			key := RegionKey(region, h*0x9e3779b97f4a7c15)
			at := fmt.Sprintf("%s/%d", region, h)
			if prev, dup := seen[key]; dup {
				t.Fatalf("key collision between %s and %s", prev, at)
			}
			seen[key] = at
		}
	}
}

func TestNewRingRejectsBadInput(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("empty membership accepted")
	}
	if _, err := NewRing([]string{"a", ""}, 0); err == nil {
		t.Error("empty member ID accepted")
	}
}

// strPoint is a virtual node labelled by its member's ID.
type strPoint struct {
	hash uint64
	id   string
}

// refPoints builds the ring's points as the ring once kept them, labelled
// by member ID, for refSuccessors.
func refPoints(ids []string, vnodes int) []strPoint {
	var pts []strPoint
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		base := fnvString(uint64(fnvOffset), id)
		for k := 0; k < vnodes; k++ {
			pts = append(pts, strPoint{mix64(fnvString(fnvString(base, "#"), strconv.Itoa(k))), id})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].id < pts[j].id
	})
	return pts
}

// refSuccessors is the successor walk as the ring once did it, kept here as
// the reference: a point found with sort.Search, and members walked as
// strings until all n are listed.
func refSuccessors(pts []strPoint, n int, key uint64) []string {
	start := sort.Search(len(pts), func(i int) bool { return pts[i].hash >= key })
	var out []string
	for i := 0; i < len(pts) && len(out) < n; i++ {
		if id := pts[(start+i)%len(pts)].id; !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	return out
}

// TestSuccessorsMatchStringWalk: over generated member sets of 1 to 70
// members, 1 to 1024 virtual nodes each, the walk by member index names the
// members the string walk does, in its order, for random keys and for keys
// on, just past and at the edges of the ring's own points; and Owner is its
// first.
func TestSuccessorsMatchStringWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(ringSeed))
	for trial := 0; trial < 40; trial++ {
		ids := make([]string, 1+rng.Intn(70))
		for i := range ids {
			ids[i] = fmt.Sprintf("m%x", rng.Intn(4*len(ids))) // duplicates too
		}
		vnodes := 1 + rng.Intn(1024)
		if trial == 0 {
			vnodes = defaultVnodes
		}
		r, err := NewRing(ids, vnodes)
		if err != nil {
			t.Fatal(err)
		}
		pts := refPoints(ids, vnodes)
		keys := []uint64{0, math.MaxUint64}
		for i := 0; i < 50; i++ {
			p := r.points[rng.Intn(len(r.points))].hash
			keys = append(keys, rng.Uint64(), p, p+1, p-1)
		}
		var dst []int
		for _, key := range keys {
			want := refSuccessors(pts, len(r.Members()), key)
			dst = r.Successors(dst[:0], key)
			got := make([]string, len(dst))
			for i, m := range dst {
				got[i] = r.Members()[m]
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%d members, %d vnodes, key %#x: walk %v, string walk %v", len(r.Members()), vnodes, key, got, want)
			}
			if r.Owner(key) != want[0] {
				t.Fatalf("%d members, %d vnodes, key %#x: owner %s, string walk %v", len(r.Members()), vnodes, key, r.Owner(key), want)
			}
		}
	}
}

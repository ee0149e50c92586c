package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
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
		sa, sb := a.Successors(nil, key, 3), b.Successors(nil, key, 3)
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("successor disagreement for %#x: %v vs %v", key, sa, sb)
		}
		if sa[0] != a.Owner(key) {
			t.Fatalf("successors[0] = %s, want owner %s", sa[0], a.Owner(key))
		}
		seen := map[string]bool{}
		for _, id := range sa {
			if seen[id] {
				t.Fatalf("duplicate member %s in successors %v", id, sa)
			}
			seen[id] = true
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

package cluster

// Cluster-plane chaos: real gossip nodes exchanging over HTTP through a
// faultnet Mesh (one directed proxy per node→node edge), carrying real
// calibrator state. TestChaos* tests run under `make chaos` with the
// race detector on; assertions are convergence invariants for a fixed
// mesh seed, never timing sequences.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/hybridsel/hybridsel/internal/audit"
	"github.com/hybridsel/hybridsel/internal/faultnet"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// gossipChaosRig is three gossip nodes, each with its own calibrator —
// and gemm on a runtime of its own that the calibrator corrects — wired
// through per-edge fault proxies.
type gossipChaosRig struct {
	mesh  *faultnet.Mesh
	ids   []string
	nodes map[string]*Node
	cals  map[string]*audit.Calibrator
	gemm  map[string]*offload.Region
}

func newGossipChaosRig(t *testing.T, seed int64) *gossipChaosRig {
	t.Helper()
	rig := &gossipChaosRig{
		mesh:  faultnet.NewMesh(seed),
		ids:   []string{"node-a", "node-b", "node-c"},
		nodes: map[string]*Node{},
		cals:  map[string]*audit.Calibrator{},
		gemm:  map[string]*offload.Region{},
	}
	t.Cleanup(func() { _ = rig.mesh.Close() })

	// The gossip servers must exist before the nodes (peer URLs go into
	// each node's config), so serve through an indirection that resolves
	// to the node's handler once it is built.
	handlers := map[string]http.Handler{}
	gossipURL := map[string]string{}
	for _, id := range rig.ids {
		id := id
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h := handlers[id]
			if h == nil {
				http.Error(w, "not up yet", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		gossipURL[id] = ts.URL
	}
	// One directed fault edge per (from, to) pair.
	edge := map[string]string{}
	for _, from := range rig.ids {
		for _, to := range rig.ids {
			if from == to {
				continue
			}
			addr, err := rig.mesh.Link(from, to, gossipURL[to])
			if err != nil {
				t.Fatal(err)
			}
			edge[from+">"+to] = "http://" + addr
		}
	}
	for _, id := range rig.ids {
		var peers []Member
		for _, peer := range rig.ids {
			if peer != id {
				peers = append(peers, Member{ID: peer, Gossip: edge[id+">"+peer]})
			}
		}
		node, err := New(Config{
			Self:      Member{ID: id, Gossip: gossipURL[id]},
			Peers:     peers,
			vnodes:    64,
			Transport: &HTTPTransport{},
		})
		if err != nil {
			t.Fatal(err)
		}
		cal := audit.NewCalibrator(0.25)
		node.Register("calibration", cal)
		handlers[id] = node.Handler()
		rig.nodes[id] = node
		rig.cals[id] = cal
		rig.gemm[id] = gemmOn(t, cal)
	}
	return rig
}

// gemmOn registers gemm on a new runtime corrected by cal.
func gemmOn(t *testing.T, cal *audit.Calibrator) *offload.Region {
	t.Helper()
	rt := offload.NewRuntime(offload.Config{Platform: machine.PlatformP9V100(), Calibrator: cal})
	k, err := polybench.Get("gemm")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rt.Register(k.IR)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (rig *gossipChaosRig) tickAll(rounds int) {
	for i := 0; i < rounds; i++ {
		for _, id := range rig.ids {
			rig.nodes[id].Tick(context.Background())
		}
	}
}

// TestChaosSplitBrainHealConverges: partition node-a away from
// {node-b, node-c}, feed each side different calibration evidence, heal,
// and require every replica's calibration state to be byte-identical —
// the warm-any-replica guarantee survives a split-brain.
func TestChaosSplitBrainHealConverges(t *testing.T) {
	rig := newGossipChaosRig(t, 13)
	rig.tickAll(2) // everyone meets everyone while healthy

	rig.mesh.Partition([]string{"node-a"}, []string{"node-b", "node-c"})

	// Divergent evidence on each side of the split.
	rig.cals["node-a"].ObserveVerdict("gemm", offload.Features{},
		[]audit.TargetMeasurement{{Target: "cpu/base", LogErr: 0.5}, {Target: "gpu/base", LogErr: -0.125}})
	rig.cals["node-b"].ObserveVerdict("mvt1", offload.Features{}, []audit.TargetMeasurement{{Target: "gpu/base", LogErr: 0.25}})

	rig.tickAll(4)

	// The majority side converged with itself but cannot see node-a's
	// region; node-a cannot see theirs.
	if !bytes.Equal(rig.cals["node-b"].SnapshotState(), rig.cals["node-c"].SnapshotState()) {
		t.Fatal("same-side replicas diverged during the partition")
	}
	if bytes.Equal(rig.cals["node-a"].SnapshotState(), rig.cals["node-b"].SnapshotState()) {
		t.Fatal("state crossed the partition")
	}
	// Both sides have declared the other unreachable: a genuine
	// split-brain, not a quiet blip.
	if h := rig.nodes["node-b"].HealthOf("node-a"); h == Alive {
		t.Fatalf("majority side still thinks node-a is %v", h)
	}
	if h := rig.nodes["node-a"].HealthOf("node-b"); h == Alive {
		t.Fatalf("minority side still thinks node-b is %v", h)
	}

	rig.mesh.Heal()
	rig.tickAll(6)

	// Byte-identical calibration everywhere, containing both sides'
	// evidence.
	ref := rig.cals["node-a"].SnapshotState()
	for _, id := range rig.ids {
		if got := rig.cals[id].SnapshotState(); !bytes.Equal(got, ref) {
			t.Fatalf("post-heal calibration on %s differs:\n %s\n vs\n %s", id, got, ref)
		}
	}
	var st audit.CalState
	if err := json.Unmarshal(ref, &st); err != nil {
		t.Fatal(err)
	}
	for _, region := range []string{"gemm", "mvt1"} {
		if _, ok := st.Regions[region]; !ok {
			t.Fatalf("merged state lost region %q: %s", region, ref)
		}
	}
	// And the rumor mill has healed too: everyone sees everyone alive.
	for _, id := range rig.ids {
		for _, peer := range rig.ids {
			if h := rig.nodes[id].HealthOf(peer); h != Alive {
				t.Fatalf("post-heal %s sees %s as %v", id, peer, h)
			}
		}
	}
}

// TestChaosGossipNodeKillRecovery: kill one node's inbound edges, let
// the survivors declare it dead, then heal — the dead verdict must be
// refuted and calibration written on the survivors while it was down
// must reach it.
func TestChaosGossipNodeKillRecovery(t *testing.T) {
	rig := newGossipChaosRig(t, 29)
	rig.tickAll(2)

	// A crash is silent in both directions (inbound-only faults would
	// leave node-c dialing out, and direct contact resurrects it — SWIM
	// treats an answering peer as alive). Round-robin probing touches
	// each peer every other tick: six rounds is three failed probes, one
	// past the dead threshold.
	rig.mesh.Partition([]string{"node-a", "node-b"}, []string{"node-c"})
	rig.tickAll(6)
	if h := rig.nodes["node-a"].HealthOf("node-c"); h != Dead {
		t.Fatalf("after sustained kill, node-a sees node-c as %v, want %v", h, Dead)
	}

	rig.cals["node-a"].ObserveVerdict("gemm", offload.Features{}, []audit.TargetMeasurement{{Target: "cpu/base", LogErr: 0.75}})

	rig.mesh.Heal()
	rig.tickAll(6)

	if h := rig.nodes["node-a"].HealthOf("node-c"); h != Alive {
		t.Fatalf("post-heal node-a sees node-c as %v", h)
	}
	if !bytes.Equal(rig.cals["node-c"].SnapshotState(), rig.cals["node-a"].SnapshotState()) {
		t.Fatal("restarted node did not pick up calibration written while it was down")
	}
	if rig.nodes["node-c"].Status().Refutes == 0 {
		t.Fatal("node-c never refuted its death rumor")
	}
}

// TestChaosLearnedFactorReachesCachedVerdicts: a correction one replica
// learns changes what the other two answer for a key they had already
// decided and memoized, within two gossip rounds and with nobody
// invalidating anything by hand — each then answers what a runtime started
// in its calibration state would.
func TestChaosLearnedFactorReachesCachedVerdicts(t *testing.T) {
	rig := newGossipChaosRig(t, 41)
	rig.tickAll(2)
	b := symbolic.Bindings{"n": 300}
	for _, id := range rig.ids {
		for _, wantHit := range []bool{false, true} {
			out, err := rig.gemm[id].Decide(b)
			if err != nil || out.TargetID != offload.TargetIDGPUBase || out.CacheHit != wantHit {
				t.Fatalf("%s before any evidence: %+v, %v; want %s, cache hit %v",
					id, out, err, offload.TargetIDGPUBase, wantHit)
			}
		}
	}

	// node-a's audits find the GPU model under-estimating gemm about 55x.
	rig.cals["node-a"].ObserveVerdict("gemm", offload.Features{}, []audit.TargetMeasurement{{Target: offload.TargetIDGPUBase, LogErr: 4}})
	rig.tickAll(2)

	for _, id := range rig.ids {
		fresh := audit.NewCalibrator(0.25)
		if _, err := fresh.MergeState(rig.cals[id].SnapshotState()); err != nil {
			t.Fatal(err)
		}
		want, err := gemmOn(t, fresh).Decide(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rig.gemm[id].Decide(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.CacheHit || got.TargetID != want.TargetID || want.TargetID != offload.TargetIDCPUBase {
			t.Errorf("%s answers %s (cache hit %v) two rounds after node-a learned; a runtime started in its state answers %s",
				id, got.TargetID, got.CacheHit, want.TargetID)
		}
	}
}

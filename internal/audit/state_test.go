package audit

import (
	"bytes"
	"testing"

	"github.com/hybridsel/hybridsel/internal/offload"
)

func observeSome(c *Calibrator, region string, rounds int, bias float64) {
	for i := 0; i < rounds; i++ {
		c.ObserveVerdict(region, offload.Features{}, measured(map[string]float64{
			"cpu/base": bias,
			"gpu/base": -bias / 2,
		}))
	}
}

// TestCalibratorStateRoundTrip: merging A's state into a fresh
// calibrator must reproduce A's factors and snapshot bytes exactly.
func TestCalibratorStateRoundTrip(t *testing.T) {
	a := NewCalibrator(0)
	observeSome(a, "gemm", 3, 0.4)
	observeSome(a, "mvt1", 5, -0.2)

	b := NewCalibrator(0)
	changed, err := b.MergeState(a.SnapshotState())
	if err != nil {
		t.Fatalf("MergeState: %v", err)
	}
	if !changed {
		t.Fatal("merging into a fresh calibrator reported no change")
	}
	if !bytes.Equal(a.SnapshotState(), b.SnapshotState()) {
		t.Fatalf("snapshot bytes diverge:\n a %s\n b %s", a.SnapshotState(), b.SnapshotState())
	}
	for _, region := range []string{"gemm", "mvt1"} {
		for _, id := range []string{"cpu/base", "gpu/base"} {
			fa, na := a.Factor(region, id)
			fb, nb := b.Factor(region, id)
			if fa != fb || na != nb {
				t.Fatalf("%s/%s: merged factor %v/%d, want %v/%d", region, id, fb, nb, fa, na)
			}
		}
	}

	// Idempotent: merging the same state again is a no-op.
	if changed, _ := b.MergeState(a.SnapshotState()); changed {
		t.Fatal("re-merging identical state reported a change")
	}
}

// TestCalibratorMergeCommutes: whatever order two replicas' states are
// folded in, the result is byte-identical — the property split-brain
// heal convergence rests on.
func TestCalibratorMergeCommutes(t *testing.T) {
	a := NewCalibrator(0)
	observeSome(a, "gemm", 4, 0.3)
	observeSome(a, "atax", 2, 0.1)
	b := NewCalibrator(0)
	observeSome(b, "gemm", 6, -0.5) // more evolved for gemm
	observeSome(b, "mvt1", 1, 0.9)

	ab := NewCalibrator(0)
	mustMerge(t, ab, a.SnapshotState())
	mustMerge(t, ab, b.SnapshotState())
	ba := NewCalibrator(0)
	mustMerge(t, ba, b.SnapshotState())
	mustMerge(t, ba, a.SnapshotState())
	if !bytes.Equal(ab.SnapshotState(), ba.SnapshotState()) {
		t.Fatalf("merge order changed the result:\n ab %s\n ba %s",
			ab.SnapshotState(), ba.SnapshotState())
	}

	// gemm came from b (6 audits beats 4); atax from a; mvt1 from b.
	if f, n := ab.Factor("gemm", "cpu/base"); n != 6 {
		t.Fatalf("gemm cpu/base after merge: factor %v from %d audits, want 6", f, n)
	}
	if _, n := ab.Factor("atax", "cpu/base"); n != 2 {
		t.Fatalf("atax cpu/base audits = %d, want 2", n)
	}
}

// TestCalibratorMergeKeepsMoreEvolvedLocal: a less-evolved remote entry
// must not clobber fresher local state.
func TestCalibratorMergeKeepsMoreEvolvedLocal(t *testing.T) {
	stale := NewCalibrator(0)
	observeSome(stale, "gemm", 1, 0.8)
	data := stale.SnapshotState()

	local := NewCalibrator(0)
	observeSome(local, "gemm", 5, 0.2)
	want, wantN := local.Factor("gemm", "cpu/base")
	if changed, err := local.MergeState(data); err != nil || changed {
		t.Fatalf("merging stale state: changed=%v err=%v, want no-op", changed, err)
	}
	if f, n := local.Factor("gemm", "cpu/base"); f != want || n != wantN {
		t.Fatalf("stale merge moved factor to %v/%d from %v/%d", f, n, want, wantN)
	}
}

func TestCalibratorMergeRejectsMalformed(t *testing.T) {
	c := NewCalibrator(0)
	for name, data := range map[string][]byte{
		"garbage":      []byte("{"),
		"zero count":   []byte(`{"regions":{"g":{"n":1,"targets":{"cpu/base":{"n":0,"ewma":0.1}}}}}`),
		"nan ewma":     []byte(`{"regions":{"g":{"n":1,"targets":{"cpu/base":{"n":1,"ewma":"x"}}}}}`),
		"inf via json": []byte(`{"regions":{"g":{"n":1,"targets":{"cpu/base":{"n":1,"ewma":1e999}}}}}`),
	} {
		if _, err := c.MergeState(data); err == nil {
			t.Errorf("%s: merge accepted malformed state", name)
		}
	}
	if len(c.SnapshotState()) != len((NewCalibrator(0)).SnapshotState()) {
		t.Fatal("rejected merges mutated state")
	}
}

func mustMerge(t *testing.T, c *Calibrator, data []byte) {
	t.Helper()
	if _, err := c.MergeState(data); err != nil {
		t.Fatalf("MergeState: %v", err)
	}
}

package offload

import "testing"

// TestEveryInvalidationAdvancesTheEpoch: the epoch starts at 1 and each
// door into the invalidation funnel — InvalidateDecisions, a calibrator's
// change of one region or of all, a profile — moves it on by one per
// region invalidated, after the decisions are gone, and closes what
// EpochAdvanced handed out before it.
func TestEveryInvalidationAdvancesTheEpoch(t *testing.T) {
	cal := &movingCalibrator{factor: 1}
	rt, r, b := gemmRegion(t, Config{Calibrator: cal})
	if e := rt.Epoch(); e != 1 {
		t.Fatalf("a new runtime is at epoch %d, want 1", e)
	}
	for i, door := range []func(){
		r.InvalidateDecisions,
		func() { cal.changed("gemm") },
		func() { cal.changed("") },
		func() { cal.changed("not registered") }, // invalidates nothing, advances nothing
		func() {
			if _, err := r.ProfileBranches(b); err != nil {
				t.Fatal(err)
			}
		},
	} {
		if _, err := r.Decide(b); err != nil {
			t.Fatal(err)
		}
		before, advanced := rt.Epoch(), rt.EpochAdvanced()
		door()
		want := before + 1
		if i == 3 {
			want = before
		}
		if got := rt.Epoch(); got != want {
			t.Errorf("door %d: epoch %d -> %d, want %d", i, before, got, want)
		}
		select {
		case <-advanced:
			if want == before {
				t.Errorf("door %d: the advance channel closed with the epoch unmoved", i)
			}
		default:
			if want != before {
				t.Errorf("door %d: the epoch advanced and its channel stayed open", i)
			}
		}
		if out, err := r.Decide(b); err != nil || (out.CacheHit && want != before) {
			t.Errorf("door %d: the decide after it hit the cache (%v)", i, err)
		}
	}
}

// TestInvalidationWithNobodyWaitingAllocatesNothing: an advance nobody
// waits for is the atomic add alone.
func TestInvalidationWithNobodyWaitingAllocatesNothing(t *testing.T) {
	rt, r, _ := gemmRegion(t, Config{})
	if allocs := testing.AllocsPerRun(1000, r.InvalidateDecisions); allocs != 0 {
		t.Errorf("InvalidateDecisions: %v allocations, want 0", allocs)
	}
	if e := rt.Epoch(); e < 1001 {
		t.Errorf("epoch %d after 1001 invalidations", e)
	}
}

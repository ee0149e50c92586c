package learn

import (
	"bytes"
	"testing"
)

// TestLearnerMergeConverges: two replicas trained on different slices of
// the audit stream must converge to byte-identical state after a full
// bidirectional exchange — the split-brain heal property.
func TestLearnerMergeConverges(t *testing.T) {
	cfg := Config{MinSamples: 2}
	a, b := New(cfg), New(cfg)
	stream := seedStream(5)
	for i, s := range stream {
		if i%2 == 0 {
			a.ObserveVerdict(s.region, s.f, s.ms)
		} else {
			b.ObserveVerdict(s.region, s.f, s.ms)
		}
		checkGateCache(t, a)
		checkGateCache(t, b)
	}
	sa, sb := a.SnapshotState(), b.SnapshotState()
	if bytes.Equal(sa, sb) {
		t.Fatal("replicas started identical; the test has no teeth")
	}
	if changed, err := a.MergeState(sb); err != nil || !changed {
		t.Fatalf("a.MergeState(b): changed=%v err=%v", changed, err)
	}
	if changed, err := b.MergeState(sa); err != nil || !changed {
		t.Fatalf("b.MergeState(a): changed=%v err=%v", changed, err)
	}
	checkGateCache(t, a)
	checkGateCache(t, b)
	ea, eb := a.SnapshotState(), b.SnapshotState()
	if !bytes.Equal(ea, eb) {
		t.Fatalf("post-exchange state diverges:\n a %s\n b %s", ea, eb)
	}

	// Idempotent: merging either side again changes nothing.
	if changed, err := a.MergeState(sb); err != nil || changed {
		t.Fatalf("re-merge reported change: %v %v", changed, err)
	}
	// And the merged learner still answers: every model kept the side
	// with more samples, so multipliers come from real statistics.
	s := stream[0]
	m := s.ms[0]
	if mult, _ := a.Multiplier(s.region, m.Target, m.PredSeconds, s.f); mult <= 0 {
		t.Fatalf("merged learner multiplier = %v, want positive", mult)
	}
}

// TestLearnerMergeOrderIndependent: folding two remote states in either
// order yields byte-identical learners.
func TestLearnerMergeOrderIndependent(t *testing.T) {
	cfg := Config{MinSamples: 2}
	x, y := New(cfg), New(cfg)
	stream := seedStream(4)
	for i, s := range stream {
		if i%3 == 0 {
			x.ObserveVerdict(s.region, s.f, s.ms)
		} else {
			y.ObserveVerdict(s.region, s.f, s.ms)
		}
	}
	sx, sy := x.SnapshotState(), y.SnapshotState()

	xy, yx := New(cfg), New(cfg)
	for _, s := range [][]byte{sx, sy} {
		if _, err := xy.MergeState(s); err != nil {
			t.Fatalf("merge: %v", err)
		}
		checkGateCache(t, xy)
	}
	for _, s := range [][]byte{sy, sx} {
		if _, err := yx.MergeState(s); err != nil {
			t.Fatalf("merge: %v", err)
		}
		checkGateCache(t, yx)
	}
	if !bytes.Equal(xy.SnapshotState(), yx.SnapshotState()) {
		t.Fatal("merge order changed the learner state")
	}
}

func TestLearnerMergeRejectsMalformed(t *testing.T) {
	l := New(Config{MinSamples: 2})
	if _, err := l.MergeState([]byte(`{"version":99}`)); err == nil {
		t.Error("MergeState accepted unsupported version")
	}
	if _, err := l.MergeState([]byte(`{"version":`)); err == nil {
		t.Error("MergeState accepted truncated state")
	}
	if _, err := l.MergeState([]byte(`{"version":1}`)); err == nil {
		t.Error("MergeState accepted snapshot with zero hyperparameters")
	}
}

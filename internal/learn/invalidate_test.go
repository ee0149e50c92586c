package learn

import (
	"math"
	"reflect"
	"testing"

	"github.com/hybridsel/hybridsel/internal/audit"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// gemmRuntime returns gemm on a runtime of its own, corrected by cal.
func gemmRuntime(t *testing.T, cal offload.Calibrator) *offload.Region {
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

// TestMergedCalibrationInvalidatesCache is the law that a corrector keeps
// its runtime's cache honest whoever moves it: after a replicated state
// (MergeState) or a snapshot (Restore) changes a correction, the
// next Decide of a key decided — and memoized — before is a miss, and is
// bit for bit what a fresh runtime holding the same corrector state
// answers. Nobody calls InvalidateDecisions here.
func TestMergedCalibrationInvalidatesCache(t *testing.T) {
	b := symbolic.Bindings{"n": 300}
	// What the peer replica learned: the GPU model under-estimates gemm
	// about 55x (log-error 4); the CPU model is right.
	peerCal := audit.NewCalibrator(0)
	peerCal.ObserveVerdict("gemm", offload.Features{}, []audit.TargetMeasurement{
		{Target: offload.TargetIDCPUBase, LogErr: 0}, {Target: offload.TargetIDGPUBase, LogErr: 4}})
	peerLrn := New(Config{MinSamples: 2})
	probe := gemmRuntime(t, nil)
	for _, n := range []int64{200, 300, 400} {
		pb := symbolic.Bindings{"n": n}
		cands, err := probe.PredictTargets(pb)
		if err != nil {
			t.Fatal(err)
		}
		f, err := probe.Features(pb)
		if err != nil {
			t.Fatal(err)
		}
		ms := make([]audit.TargetMeasurement, len(cands))
		for i, c := range cands {
			logErr := 0.0
			if c.Target == offload.TargetIDGPUBase {
				logErr = 4
			}
			ms[i] = audit.TargetMeasurement{Target: c.Target, PredSeconds: c.PredSeconds,
				ActualSeconds: c.PredSeconds * math.Exp(logErr), LogErr: logErr}
		}
		peerLrn.ObserveVerdict("gemm", f, ms)
		checkGateCache(t, peerLrn)
	}

	newLearner := func() offload.Calibrator { return New(Config{MinSamples: 2}) }
	for name, c := range map[string]struct {
		// corrector builds a replica's corrector in its zero state; arrive
		// moves one to the peer's state.
		corrector  func() offload.Calibrator
		arrive     func(offload.Calibrator) (changed bool, err error)
		provenance string
	}{
		"calibrator MergeState": {
			func() offload.Calibrator { return audit.NewCalibrator(0) },
			func(c offload.Calibrator) (bool, error) {
				return c.(*audit.Calibrator).MergeState(peerCal.SnapshotState())
			},
			offload.ProvenanceAnalytical},
		"learner MergeState": {newLearner,
			func(c offload.Calibrator) (bool, error) { return c.(*Learner).MergeState(peerLrn.SnapshotState()) },
			offload.ProvenanceLearned},
		"learner Restore": {newLearner,
			func(c offload.Calibrator) (bool, error) { return true, c.(*Learner).Restore(peerLrn.Snapshot()) },
			offload.ProvenanceLearned},
	} {
		t.Run(name, func(t *testing.T) {
			local, fresh := c.corrector(), c.corrector()
			if _, err := c.arrive(fresh); err != nil {
				t.Fatal(err)
			}
			if l, ok := fresh.(*Learner); ok {
				checkGateCache(t, l)
			}
			region := gemmRuntime(t, local)
			before, err := region.Decide(b)
			if err != nil {
				t.Fatal(err)
			}
			if again, err := region.Decide(b); err != nil || !again.CacheHit {
				t.Fatalf("the verdict was not memoized: %+v, %v", again, err)
			}
			if changed, err := c.arrive(local); err != nil || !changed {
				t.Fatalf("the peer's state changed nothing: %v, %v", changed, err)
			}
			after, err := region.Decide(b)
			if err != nil {
				t.Fatal(err)
			}
			want, err := gemmRuntime(t, fresh).Decide(b)
			if err != nil {
				t.Fatal(err)
			}
			if after.CacheHit {
				t.Errorf("still answering %s from the cache; a fresh runtime in the same state says %s",
					after.TargetID, want.TargetID)
			}
			if before.TargetID == want.TargetID || want.Provenance != c.provenance {
				t.Fatalf("the test has no teeth: %s before, %s (%s) in the peer's state",
					before.TargetID, want.TargetID, want.Provenance)
			}
			got, ref := after.Decision, want.Decision
			got.DecisionOverhead, ref.DecisionOverhead = 0, 0
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("verdict after the state arrived:\n %+v\nfresh runtime in the same state:\n %+v", got, ref)
			}
		})
	}
}

package offload

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

func newRT(t *testing.T, p Policy) *Runtime {
	t.Helper()
	rt := NewRuntime(Config{Platform: machine.PlatformP9V100(), Policy: p})
	for _, name := range []string{"gemm", "mvt1", "2dconv"} {
		k, err := polybench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Register(k.IR); err != nil {
			t.Fatal(err)
		}
	}
	return rt
}

// regionOf resolves a registered region's handle.
func regionOf(t testing.TB, rt *Runtime, name string) *Region {
	t.Helper()
	r, err := rt.Region(name)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// predictPair is the base pair's raw model seconds at b: PredictTargets'
// ranking read by Decision.BasePair's rule.
func predictPair(r *Region, b symbolic.Bindings) (cpuSec, gpuSec float64, err error) {
	cands, err := r.PredictTargets(b)
	if err != nil {
		return 0, 0, err
	}
	cpuSec, gpuSec = (&Decision{Candidates: cands}).BasePair()
	return cpuSec, gpuSec, nil
}

// measured is the ground truth of one registered target at b, read
// through Measure.
func measured(t testing.TB, r *Region, id string, b symbolic.Bindings) float64 {
	t.Helper()
	ms, _, err := r.Measure(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.Target == id {
			return m.Seconds
		}
	}
	t.Fatalf("%s: no measurement of %s in %+v", r.Name, id, ms)
	return 0
}

// observed installs an observer on rt that keeps every completed decision
// in completion order — what a caller that wants a decision log does —
// and returns a function snapshotting what it has seen so far.
func observed(rt *Runtime) func() []Decision {
	var mu sync.Mutex
	var seen []Decision
	rt.SetObserver(func(d Decision) {
		mu.Lock()
		seen = append(seen, d)
		mu.Unlock()
	})
	return func() []Decision {
		mu.Lock()
		defer mu.Unlock()
		return append([]Decision(nil), seen...)
	}
}

func TestRegisterAndRegion(t *testing.T) {
	rt := newRT(t, ModelGuided)
	r, err := rt.Region("gemm")
	if err != nil {
		t.Fatal(err)
	}
	if r.Attrs == nil || r.Analysis == nil {
		t.Fatal("region missing analyses")
	}
	if _, err := rt.Region("nope"); err == nil {
		t.Fatal("unknown region accepted")
	}
	// Duplicate registration rejected.
	k, _ := polybench.Get("gemm")
	if _, err := rt.Register(k.IR); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	// The attribute database is populated.
	if _, err := rt.DB().Get("gemm"); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterRejectsInvalidKernel(t *testing.T) {
	rt := NewRuntime(Config{Platform: machine.PlatformP9V100()})
	bad := &ir.Kernel{Name: "bad", Params: []string{"n"},
		Body: []ir.Stmt{ir.ParFor("i", ir.N(0), ir.V("n"),
			ir.Store(ir.R("X", ir.V("i")), ir.F(1)))}}
	if _, err := rt.Register(bad); err == nil {
		t.Fatal("invalid kernel accepted")
	}
	serial := &ir.Kernel{Name: "serial", Params: []string{"n"},
		Arrays: []*ir.Array{ir.Arr("A", ir.F64, ir.V("n"))},
		Body: []ir.Stmt{ir.For("i", ir.N(0), ir.V("n"),
			ir.Store(ir.R("A", ir.V("i")), ir.F(1)))}}
	if _, err := rt.Register(serial); err == nil {
		t.Fatal("serial kernel accepted")
	}
}

func TestPoliciesExecuteChosenTarget(t *testing.T) {
	b := symbolic.Bindings{"n": 256}
	for _, p := range []Policy{AlwaysCPU, AlwaysGPU, ModelGuided, Oracle} {
		rt := newRT(t, p)
		log := observed(rt)
		r := regionOf(t, rt, "gemm")
		out, err := r.Launch(b)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if out.ActualSeconds <= 0 {
			t.Fatalf("%v: actual = %v", p, out.ActualSeconds)
		}
		switch p {
		case AlwaysCPU:
			if out.TargetID != TargetIDCPUBase {
				t.Fatalf("AlwaysCPU chose %v", out.TargetID)
			}
		case AlwaysGPU:
			if out.TargetID != TargetIDGPUBase {
				t.Fatalf("AlwaysGPU chose %v", out.TargetID)
			}
		case Oracle:
			if n := rt.Metrics().ExecCacheMisses; n != 2 {
				t.Fatalf("oracle executed %d targets, must execute both", n)
			}
			cpuSec, gpuSec := measured(t, r, TargetIDCPUBase, b), measured(t, r, TargetIDGPUBase, b)
			if out.ActualSeconds > cpuSec || out.ActualSeconds > gpuSec {
				t.Fatal("oracle did not keep the faster target")
			}
		}
		if n := len(log()); n != 1 {
			t.Fatalf("%v: observer saw %d decisions", p, n)
		}
	}
}

func TestModelGuidedTracksPredictions(t *testing.T) {
	rt := newRT(t, ModelGuided)
	out, err := regionOf(t, rt, "gemm").Launch(symbolic.Bindings{"n": 1100})
	if err != nil {
		t.Fatal(err)
	}
	predCPU, predGPU := out.BasePair()
	if predCPU <= 0 || predGPU <= 0 {
		t.Fatalf("predictions = %v / %v", predCPU, predGPU)
	}
	wantGPU := predGPU < predCPU
	if (out.Target == KindGPU) != wantGPU {
		t.Fatalf("target %v inconsistent with predictions %v/%v", out.Target, predCPU, predGPU)
	}
}

func TestDecisionOverheadNegligible(t *testing.T) {
	// The paper's argument against ML inference: evaluating the
	// analytical models is just solving equations. Ensure a decision
	// costs well under a millisecond even in this unoptimized prototype.
	rt := newRT(t, ModelGuided)
	out, err := regionOf(t, rt, "2dconv").Launch(symbolic.Bindings{"n": 1100})
	if err != nil {
		t.Fatal(err)
	}
	if out.DecisionOverhead > 10*time.Millisecond {
		t.Fatalf("decision took %v", out.DecisionOverhead)
	}
}

func TestExecuteMemoization(t *testing.T) {
	rt := newRT(t, Oracle)
	r := regionOf(t, rt, "mvt1")
	b := symbolic.Bindings{"n": 256}
	s1 := measured(t, r, TargetIDCPUBase, b)
	if s2 := measured(t, r, TargetIDCPUBase, b); s1 != s2 {
		t.Fatalf("memoized execution differs: %v vs %v", s1, s2)
	}
	// Different bindings are distinct cache entries.
	if s3 := measured(t, r, TargetIDCPUBase, symbolic.Bindings{"n": 512}); s3 == s1 {
		t.Fatal("different bindings should not share a cache entry")
	}
}

func TestLaunchErrors(t *testing.T) {
	rt := newRT(t, ModelGuided)
	if _, err := rt.Region("nope"); err == nil {
		t.Fatal("unknown region resolved")
	}
	if _, err := regionOf(t, rt, "gemm").Launch(nil); err == nil {
		t.Fatal("launch without runtime values accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	rt := NewRuntime(Config{Platform: machine.PlatformP9V100(), Threads: 99999})
	cfg := rt.Config()
	if cfg.Threads != 160 {
		t.Fatalf("threads clamped to %d", cfg.Threads)
	}
	if cfg.Policy != ModelGuided || cfg.DecisionCacheSize != defaultDecisionCacheSize {
		t.Fatalf("policy %v, cache size %d not defaulted", cfg.Policy, cfg.DecisionCacheSize)
	}
}

func TestStringers(t *testing.T) {
	if KindCPU.String() != "cpu" || KindGPU.String() != "gpu" {
		t.Fatal("target kind stringers")
	}
	for p, want := range map[Policy]string{
		ModelGuided: "model-guided", AlwaysGPU: "always-gpu",
		AlwaysCPU: "always-cpu", Oracle: "oracle",
	} {
		if p.Name() != want {
			t.Fatalf("Name() = %q, want %q", p.Name(), want)
		}
		if got := fmt.Sprintf("%v", p); got != want {
			t.Fatalf("%%v = %q, want %q", got, want)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, want := range []Policy{ModelGuided, AlwaysCPU, AlwaysGPU, Oracle, Split} {
		got, err := ParsePolicy(want.Name())
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", want.Name(), got, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestSentinelErrors(t *testing.T) {
	rt := newRT(t, ModelGuided)
	if _, err := rt.Region("nope"); !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("Region error = %v", err)
	}
	k, _ := polybench.Get("gemm")
	if _, err := rt.Register(k.IR); !errors.Is(err, ErrDuplicateRegion) {
		t.Fatalf("duplicate registration error = %v", err)
	}
	// Missing bindings surface as ErrUnboundSymbol from every entry point.
	if _, err := regionOf(t, rt, "gemm").Launch(nil); !errors.Is(err, ErrUnboundSymbol) {
		t.Fatalf("launch without bindings = %v", err)
	}
	if _, err := regionOf(t, rt, "gemm").PredictTargets(symbolic.Bindings{"wrong": 4}); !errors.Is(err, ErrUnboundSymbol) {
		t.Fatalf("predict with wrong bindings = %v", err)
	}
	if _, _, err := regionOf(t, rt, "gemm").Measure(symbolic.Bindings{"wrong": 4}); !errors.Is(err, ErrUnboundSymbol) {
		t.Fatalf("measure with wrong bindings = %v", err)
	}
	// Bindings that leave the region no iteration surface as ErrOutOfRange
	// whichever evaluator prices the launch.
	for _, mapForm := range []bool{false, true} {
		rt := newRT(t, ModelGuided)
		rt.mapEvalOnly = mapForm
		if _, err := regionOf(t, rt, "gemm").Decide(symbolic.Bindings{"n": 0}); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("decide over an empty iteration space (map form %v) = %v", mapForm, err)
		}
	}
}

func TestRegionHandleLaunch(t *testing.T) {
	rt := NewRuntime(Config{Platform: machine.PlatformP9V100(), Policy: ModelGuided})
	k, _ := polybench.Get("gemm")
	region, err := rt.Register(k.IR)
	if err != nil {
		t.Fatal(err)
	}
	b := symbolic.Bindings{"n": 256}
	cpuSec, gpuSec, err := predictPair(region, b)
	if err != nil || cpuSec <= 0 || gpuSec <= 0 {
		t.Fatalf("handle predict: %v %v %v", cpuSec, gpuSec, err)
	}
	out, err := region.Launch(b)
	if err != nil {
		t.Fatal(err)
	}
	if c, g := out.BasePair(); c != cpuSec || g != gpuSec {
		t.Fatal("handle launch disagrees with handle predict")
	}
	if sec := measured(t, region, out.TargetID, b); sec != out.ActualSeconds {
		t.Fatalf("handle measure = %v (launch saw %v)", sec, out.ActualSeconds)
	}
	// A lookup by name resolves to the same handle.
	viaName, err := rt.Region("gemm")
	if err != nil || viaName != region {
		t.Fatalf("Region lookup = %v, %v", viaName, err)
	}
	if got := rt.Regions(); len(got) != 1 || got[0] != "gemm" {
		t.Fatalf("Regions() = %v", got)
	}
}

func TestDecisionCacheHitsSkipModelEvaluation(t *testing.T) {
	rt := newRT(t, ModelGuided)
	seen := observed(rt)
	b := symbolic.Bindings{"n": 256}
	for i := 0; i < 5; i++ {
		if _, err := regionOf(t, rt, "gemm").Launch(b); err != nil {
			t.Fatal(err)
		}
	}
	m := rt.Metrics()
	if m.Launches != 5 {
		t.Fatalf("launches = %d", m.Launches)
	}
	if m.DecisionCacheMisses != 1 || m.DecisionCacheHits != 4 {
		t.Fatalf("cache hits/misses = %d/%d", m.DecisionCacheHits, m.DecisionCacheMisses)
	}
	if m.Predictions != 1 {
		t.Fatalf("model evaluated %d times for identical bindings", m.Predictions)
	}
	log := seen()
	if log[0].CacheHit || !log[4].CacheHit {
		t.Fatal("CacheHit flags wrong in observed decisions")
	}
	// Identical predictions and target from the cached path.
	if log[0].TargetID != log[4].TargetID ||
		!slices.Equal(log[0].Candidates, log[4].Candidates) {
		t.Fatal("cached decision differs from evaluated decision")
	}
	// Different bindings are distinct cache entries.
	if _, err := regionOf(t, rt, "gemm").Launch(symbolic.Bindings{"n": 300}); err != nil {
		t.Fatal(err)
	}
	if got := rt.Metrics().DecisionCacheMisses; got != 2 {
		t.Fatalf("misses after new bindings = %d", got)
	}
}

func TestDecisionCacheDisabled(t *testing.T) {
	rt := NewRuntime(Config{Platform: machine.PlatformP9V100(),
		Policy: ModelGuided, DecisionCacheSize: -1})
	k, _ := polybench.Get("gemm")
	if _, err := rt.Register(k.IR); err != nil {
		t.Fatal(err)
	}
	b := symbolic.Bindings{"n": 256}
	for i := 0; i < 3; i++ {
		if _, err := regionOf(t, rt, "gemm").Launch(b); err != nil {
			t.Fatal(err)
		}
	}
	m := rt.Metrics()
	if m.DecisionCacheHits != 0 || m.DecisionCacheMisses != 3 {
		t.Fatalf("disabled cache recorded %d hits / %d misses",
			m.DecisionCacheHits, m.DecisionCacheMisses)
	}
	if m.Predictions != 3 {
		t.Fatalf("predictions = %d, want one per launch", m.Predictions)
	}
}

func TestDecisionCacheEviction(t *testing.T) {
	rt := NewRuntime(Config{Platform: machine.PlatformP9V100(),
		Policy: AlwaysCPU, DecisionCacheSize: 2})
	k, _ := polybench.Get("mvt1")
	region, err := rt.Register(k.IR)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{64, 96, 128} {
		if _, err := region.Launch(symbolic.Bindings{"n": n}); err != nil {
			t.Fatal(err)
		}
	}
	m := rt.Metrics()
	if m.DecisionCacheEvictions != 1 {
		t.Fatalf("evictions = %d", m.DecisionCacheEvictions)
	}
	if m.DecisionCacheSize != 2 {
		t.Fatalf("live entries = %d", m.DecisionCacheSize)
	}
	// n=64 was evicted (LRU); relaunching it must miss and re-evaluate.
	if _, err := region.Launch(symbolic.Bindings{"n": 64}); err != nil {
		t.Fatal(err)
	}
	if got := rt.Metrics().DecisionCacheMisses; got != 4 {
		t.Fatalf("misses = %d, want 4", got)
	}
	// n=128 is most recent and must still hit.
	if _, err := region.Launch(symbolic.Bindings{"n": 128}); err != nil {
		t.Fatal(err)
	}
	if got := rt.Metrics().DecisionCacheHits; got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
}

func TestMetricsConsistency(t *testing.T) {
	rt := newRT(t, ModelGuided)
	log := observed(rt)
	for _, n := range []int64{128, 128, 256} {
		if _, err := regionOf(t, rt, "gemm").Launch(symbolic.Bindings{"n": n}); err != nil {
			t.Fatal(err)
		}
		if _, err := regionOf(t, rt, "mvt1").Launch(symbolic.Bindings{"n": n}); err != nil {
			t.Fatal(err)
		}
	}
	m := rt.Metrics()
	if m.Regions != 3 {
		t.Fatalf("regions = %d", m.Regions)
	}
	if m.Launches != 6 {
		t.Fatalf("launches = %d", m.Launches)
	}
	if m.DecisionCacheHits+m.DecisionCacheMisses != m.Launches {
		t.Fatalf("hits %d + misses %d != launches %d",
			m.DecisionCacheHits, m.DecisionCacheMisses, m.Launches)
	}
	var dispatched uint64
	for _, n := range m.DispatchTargets {
		dispatched += n
	}
	if dispatched != m.Launches {
		t.Fatalf("dispatch sum %d != launches %d", dispatched, m.Launches)
	}
	if int(m.Launches) != len(log()) {
		t.Fatal("observer disagrees with launch counter")
	}
	if m.ModelEval.Count != m.Predictions || m.Predictions == 0 {
		t.Fatalf("latency histogram count %d, predictions %d",
			m.ModelEval.Count, m.Predictions)
	}
	if m.ModelEval.Mean() <= 0 || m.ModelEval.Max < m.ModelEval.Mean() {
		t.Fatalf("latency summary mean %v max %v", m.ModelEval.Mean(), m.ModelEval.Max)
	}
	if s := m.String(); !strings.Contains(s, "decision cache") ||
		!strings.Contains(s, "model evaluations") {
		t.Fatalf("metrics rendering missing sections:\n%s", s)
	}
	// Merge doubles every counter.
	sum := m.Merge(m)
	if sum.Launches != 2*m.Launches || sum.DispatchTargets[TargetIDCPUBase] != 2*m.DispatchTargets[TargetIDCPUBase] ||
		sum.ModelEval.Count != 2*m.ModelEval.Count {
		t.Fatal("Merge did not accumulate")
	}
}

// TestCacheInvariantMixedTraffic pins the documented decision-cache
// invariant under mixed Launch/Decide traffic: every call that reaches
// the decision stage resolves to exactly one cache hit or miss, so
// Hits + Misses == Launches + Decides.
func TestCacheInvariantMixedTraffic(t *testing.T) {
	rt := newRT(t, ModelGuided)
	hot := symbolic.Bindings{"n": 256}
	cold := symbolic.Bindings{"n": 300}
	for i := 0; i < 3; i++ {
		if _, err := regionOf(t, rt, "gemm").Launch(hot); err != nil {
			t.Fatal(err)
		}
		if _, err := regionOf(t, rt, "gemm").Decide(hot); err != nil {
			t.Fatal(err)
		}
		if _, err := regionOf(t, rt, "mvt1").Decide(cold); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := regionOf(t, rt, "mvt1").Launch(cold); err != nil {
		t.Fatal(err)
	}
	// PredictTargets reads the cache without counting: the invariant must
	// survive it.
	if _, _, err := predictPair(regionOf(t, rt, "2dconv"), hot); err != nil {
		t.Fatal(err)
	}
	m := rt.Metrics()
	if m.Launches != 4 || m.Decides != 6 {
		t.Fatalf("launches %d decides %d, want 4/6", m.Launches, m.Decides)
	}
	if got, want := m.DecisionCacheHits+m.DecisionCacheMisses, m.Launches+m.Decides; got != want {
		t.Fatalf("hits+misses = %d, want launches+decides = %d", got, want)
	}
}

// fixedCalibrator scales each kind's predictions by a constant factor —
// enough to force the policy across the decision boundary in tests.
type fixedCalibrator struct{ cpu, gpu float64 }

func (fixedCalibrator) OnCorrectionChange(func(string)) {} // never moves

func (c fixedCalibrator) CorrectFeatures(_ string, _ Features, cands []Candidate) string {
	for i := range cands {
		f := c.cpu
		if cands[i].Kind == KindGPU {
			f = c.gpu
		}
		cands[i].CalSeconds = cands[i].PredSeconds * f
	}
	return ProvenanceAnalytical
}

// TestCalibratorSteersDecision: a calibration factor large enough to flip
// the predicted ordering must flip the chosen target, while the logged
// predictions stay the raw model output; InvalidateDecisions must force a
// cached decision to be re-taken.
func TestCalibratorSteersDecision(t *testing.T) {
	b := symbolic.Bindings{"n": 1100}
	base := newRT(t, ModelGuided)
	out, err := regionOf(t, base, "gemm").Decide(b)
	if err != nil {
		t.Fatal(err)
	}

	// Penalize whichever target won by 1000x: the decision must flip.
	cal := fixedCalibrator{cpu: 1, gpu: 1}
	if out.Target == KindGPU {
		cal.gpu = 1000
	} else {
		cal.cpu = 1000
	}
	rt := NewRuntime(Config{Platform: machine.PlatformP9V100(),
		Policy: ModelGuided, Calibrator: cal})
	k, err := polybench.Get("gemm")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Register(k.IR); err != nil {
		t.Fatal(err)
	}
	flipped, err := regionOf(t, rt, "gemm").Decide(b)
	if err != nil {
		t.Fatal(err)
	}
	if flipped.Target == out.Target {
		t.Fatalf("calibration did not flip the target from %v", out.Target)
	}
	fc, fg := flipped.BasePair()
	if oc, og := out.BasePair(); fc != oc || fg != og {
		t.Fatal("calibration leaked into the recorded raw predictions")
	}

	// A cached decision survives calibrator hot-swaps by design until the
	// region is invalidated.
	again, err := regionOf(t, rt, "gemm").Decide(b)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.Target != flipped.Target {
		t.Fatalf("expected cached flipped decision, got hit=%v target=%v",
			again.CacheHit, again.Target)
	}
	if err := rt.InvalidateDecisions("gemm"); err != nil {
		t.Fatal(err)
	}
	if err := rt.InvalidateDecisions("nope"); err == nil {
		t.Fatal("invalidating an unknown region must error")
	}
	fresh, err := regionOf(t, rt, "gemm").Decide(b)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.CacheHit {
		t.Fatal("InvalidateDecisions left the memoized decision in place")
	}
	m := rt.Metrics()
	if m.DecisionCacheMisses != 2 {
		t.Fatalf("misses = %d, want 2 (invalidate must force re-decision)", m.DecisionCacheMisses)
	}
}

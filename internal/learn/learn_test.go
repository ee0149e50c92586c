package learn

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/hybridsel/hybridsel/internal/audit"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
)

// seedStream is a deterministic synthetic audit stream over a few
// regions and targets: distinct feature points with a target-dependent,
// feature-dependent residual so the models have real structure to learn.
func seedStream(points int) []struct {
	region string
	f      offload.Features
	ms     []audit.TargetMeasurement
} {
	var out []struct {
		region string
		f      offload.Features
		ms     []audit.TargetMeasurement
	}
	regions := []string{"gemm", "mvt1", "atax"}
	targets := []string{"cpu/base", "gpu/base", "gpu/prev"}
	for p := 0; p < points; p++ {
		for ri, region := range regions {
			f := offload.Features{
				Iterations:    int64(1000 * (p + 1) * (ri + 1)),
				TransferBytes: int64(8192 * (p + 2)),
				CoalescedFrac: float64(ri) / 2,
			}
			var ms []audit.TargetMeasurement
			for ti, target := range targets {
				pred := 1e-3 * float64(p+1) * float64(ti+1)
				// Structured residual: target-specific bias plus a mild
				// size dependence.
				logErr := 0.2*float64(ti-1) + 0.05*math.Log1p(float64(f.Iterations))/10
				ms = append(ms, audit.TargetMeasurement{
					Target:        target,
					PredSeconds:   pred,
					ActualSeconds: pred * math.Exp(logErr),
					LogErr:        logErr,
				})
			}
			out = append(out, struct {
				region string
				f      offload.Features
				ms     []audit.TargetMeasurement
			}{region, f, ms})
		}
	}
	return out
}

// checkGateCache holds the learner to the law that makes caching the
// confidence gate's input sound: every model's cached residual variance is,
// bit for bit, what variance() computes from its sums now.
func checkGateCache(t *testing.T, l *Learner) {
	t.Helper()
	l.mu.RLock()
	defer l.mu.RUnlock()
	check := func(where, target string, m *model) {
		if got, want := m.resVar, m.variance(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s/%s: cached gate variance %v, variance() = %v", where, target, got, want)
		}
	}
	for target, m := range l.global {
		check("global", target, m)
	}
	for region, rm := range l.regions {
		for target, m := range rm {
			check(region, target, m)
		}
	}
}

// referenceCorrect is CorrectFeatures as it stood before the gate input was
// cached and the region resolved once per verdict: per candidate, two map
// lookups, a fresh variance() and a whole feature vector. The production
// method must agree with it bit for bit.
func referenceCorrect(l *Learner, region string, f offload.Features, cands []offload.Candidate) string {
	passes := func(m *model) bool {
		if m == nil || !m.ok || m.n < uint64(l.cfg.MinSamples) {
			return false
		}
		return !(m.variance() > gateMaxVariance)
	}
	mults := make([]float64, len(cands))
	confident := len(cands) > 0
	for i := range cands {
		if cands[i].PredSeconds <= 0 {
			confident = false
			break
		}
		var m *model
		if rm := l.regions[region]; rm != nil && passes(rm[cands[i].Target]) {
			m = rm[cands[i].Target]
		} else if g := l.global[cands[i].Target]; passes(g) {
			m = g
		}
		if m == nil {
			confident = false
			break
		}
		x := featVec(cands[i].PredSeconds, f)
		mults[i] = m.multiplier(&x)
	}
	if !confident {
		if l.cfg.Fallback != nil {
			return l.cfg.Fallback.CorrectFeatures(region, f, cands)
		}
		return offload.ProvenanceAnalytical
	}
	for i := range cands {
		cands[i].CalSeconds = cands[i].PredSeconds * mults[i]
	}
	return offload.ProvenanceLearned
}

// checkCorrectMatchesReference corrects one verdict both ways and compares.
func checkCorrectMatchesReference(t *testing.T, l *Learner, region string, f offload.Features, cands []offload.Candidate) {
	t.Helper()
	got := append([]offload.Candidate(nil), cands...)
	want := append([]offload.Candidate(nil), cands...)
	gotProv, wantProv := l.CorrectFeatures(region, f, got), referenceCorrect(l, region, f, want)
	if gotProv != wantProv {
		t.Fatalf("%s: provenance %q, reference %q", region, gotProv, wantProv)
	}
	for i := range got {
		if got[i].Target != want[i].Target ||
			math.Float64bits(got[i].CalSeconds) != math.Float64bits(want[i].CalSeconds) ||
			math.Float64bits(got[i].PredSeconds) != math.Float64bits(want[i].PredSeconds) {
			t.Fatalf("%s: candidate %d corrected to %+v, reference %+v", region, i, got[i], want[i])
		}
	}
}

// TestDeterministicConvergence feeds two independent learners the same
// audit stream and requires bit-for-bit identical weights, state and
// corrections — the seeded-determinism guarantee record/replay rides on.
func TestDeterministicConvergence(t *testing.T) {
	a := New(Config{MinSamples: 2})
	b := New(Config{MinSamples: 2})
	stream := seedStream(6)
	for _, s := range stream {
		ca := a.ObserveVerdict(s.region, s.f, s.ms)
		cb := b.ObserveVerdict(s.region, s.f, s.ms)
		checkGateCache(t, a)
		if ca != cb {
			t.Fatalf("divergent changed signal on %s", s.region)
		}
	}
	sa, sb := a.State(), b.State()
	if !statesEqual(sa, sb) {
		t.Fatalf("states diverge:\n%+v\n%+v", sa, sb)
	}
	for _, s := range stream {
		for _, m := range s.ms {
			ma, la := a.Multiplier(s.region, m.Target, m.PredSeconds, s.f)
			mb, lb := b.Multiplier(s.region, m.Target, m.PredSeconds, s.f)
			if la != lb || math.Float64bits(ma) != math.Float64bits(mb) {
				t.Fatalf("multiplier diverges for %s/%s: %v/%v vs %v/%v",
					s.region, m.Target, ma, la, mb, lb)
			}
		}
	}
	if sa.Samples == 0 || sa.Updates == 0 {
		t.Fatalf("stream absorbed nothing: %+v", sa)
	}
}

func statesEqual(a, b State) bool {
	if a.MinSamples != b.MinSamples || a.Samples != b.Samples || a.Updates != b.Updates {
		return false
	}
	eqTargets := func(x, y []TargetState) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].Target != y[i].Target || x[i].Samples != y[i].Samples ||
				x[i].Confident != y[i].Confident ||
				math.Float64bits(x[i].Variance) != math.Float64bits(y[i].Variance) {
				return false
			}
			for j := range x[i].Weights {
				if math.Float64bits(x[i].Weights[j]) != math.Float64bits(y[i].Weights[j]) {
					return false
				}
			}
		}
		return true
	}
	if !eqTargets(a.Global, b.Global) || len(a.Regions) != len(b.Regions) {
		return false
	}
	for i := range a.Regions {
		if a.Regions[i].Region != b.Regions[i].Region ||
			!eqTargets(a.Regions[i].Targets, b.Regions[i].Targets) {
			return false
		}
	}
	return true
}

// TestConfidenceGate walks a cold model through the gate: analytical
// verdicts (with the EWMA fallback applied verbatim) below MinSamples,
// learned ones after, with the gate transition reported as a material
// change exactly once.
func TestConfidenceGate(t *testing.T) {
	cal := audit.NewCalibrator(0)
	l := New(Config{Fallback: cal, MinSamples: 3})
	region := "gemm"
	f := offload.Features{Iterations: 4000, TransferBytes: 1 << 20, CoalescedFrac: 1}
	newCands := func() []offload.Candidate {
		return []offload.Candidate{
			{Target: "cpu/base", Kind: offload.KindCPU, PredSeconds: 0.010, CalSeconds: 0.010},
			{Target: "gpu/base", Kind: offload.KindGPU, PredSeconds: 0.012, CalSeconds: 0.012},
		}
	}
	ms := []audit.TargetMeasurement{
		// CPU model is 2x optimistic here; GPU is accurate.
		{Target: "cpu/base", PredSeconds: 0.010, ActualSeconds: 0.020, LogErr: math.Log(2)},
		{Target: "gpu/base", PredSeconds: 0.012, ActualSeconds: 0.012, LogErr: 0},
	}

	// Cold learner: verdict must be analytical and bit-for-bit the EWMA
	// fallback's output.
	cands := newCands()
	want := newCands()
	cal.ObserveVerdict(region, f, ms)
	if prov := l.CorrectFeatures(region, f, cands); prov != offload.ProvenanceAnalytical {
		t.Fatalf("cold verdict provenance = %q", prov)
	}
	cal.CorrectFeatures(region, offload.Features{}, want)
	for i := range cands {
		if math.Float64bits(cands[i].CalSeconds) != math.Float64bits(want[i].CalSeconds) {
			t.Fatalf("cold verdict does not match EWMA fallback: %v vs %v",
				cands[i].CalSeconds, want[i].CalSeconds)
		}
	}

	transitions := 0
	for i := 0; i < 3; i++ {
		if l.ObserveVerdict(region, f, ms) {
			transitions++
		}
	}
	if transitions != 1 {
		t.Fatalf("gate transitions = %d, want exactly 1 (at MinSamples)", transitions)
	}

	cands = newCands()
	if prov := l.CorrectFeatures(region, f, cands); prov != offload.ProvenanceLearned {
		t.Fatalf("warm verdict provenance = %q", prov)
	}
	// Identical samples: the learned multiplier at the observed point
	// must land on exp(logErr) within float tolerance (the ridge
	// shrinkage is ~1e-6 relative through the bias term).
	mult := cands[0].CalSeconds / cands[0].PredSeconds
	if math.Abs(mult-2) > 1e-3 {
		t.Fatalf("learned CPU multiplier = %v, want ~2", mult)
	}
	gm := cands[1].CalSeconds / cands[1].PredSeconds
	if math.Abs(gm-1) > 1e-3 {
		t.Fatalf("learned GPU multiplier = %v, want ~1", gm)
	}

	// Converged: another identical verdict moves nothing materially.
	if l.ObserveVerdict(region, f, ms) {
		t.Fatal("converged learner still reports material change")
	}

	st := l.Stats()
	if st.LearnedVerdicts != 1 || st.AnalyticalVerdicts != 1 {
		t.Fatalf("verdict counters = %+v", st)
	}

	// The correction sits on every cache miss: its multipliers stay on the
	// stack for any registry of up to eight targets.
	if allocs := testing.AllocsPerRun(100, func() { l.CorrectFeatures(region, f, cands) }); allocs != 0 {
		t.Fatalf("a learned correction allocates %v times, want 0", allocs)
	}
	if st.ConfidentModels == 0 {
		t.Fatalf("no confident models after gate: %+v", st)
	}
}

// TestLearnerTrainsItsFallback: the auditor hands a learner its verdicts
// and nothing else, so the EWMA the learner falls back to below the gate
// must learn from them exactly as a calibrator fed the same verdicts
// directly — and correct a below-gate verdict by those factors.
func TestLearnerTrainsItsFallback(t *testing.T) {
	fallback, direct := audit.NewCalibrator(0), audit.NewCalibrator(0)
	l := New(Config{Fallback: fallback, MinSamples: 1 << 20}) // the gate never opens
	stream := seedStream(3)
	for _, s := range stream {
		l.ObserveVerdict(s.region, s.f, s.ms)
		direct.ObserveVerdict(s.region, s.f, s.ms)
	}
	if got, want := fallback.SnapshotState(), direct.SnapshotState(); !bytes.Equal(got, want) {
		t.Fatalf("the learner's fallback holds\n %s\na calibrator fed the same verdicts holds\n %s", got, want)
	}
	s := stream[0]
	cands := make([]offload.Candidate, len(s.ms))
	for i, m := range s.ms {
		cands[i] = offload.Candidate{Target: m.Target, PredSeconds: m.PredSeconds, CalSeconds: m.PredSeconds}
	}
	want := append([]offload.Candidate(nil), cands...)
	direct.CorrectFeatures(s.region, s.f, want)
	if prov := l.CorrectFeatures(s.region, s.f, cands); prov != offload.ProvenanceAnalytical {
		t.Fatalf("below-gate verdict provenance = %q", prov)
	}
	corrected := false
	for i := range cands {
		if math.Float64bits(cands[i].CalSeconds) != math.Float64bits(want[i].CalSeconds) {
			t.Fatalf("%s corrected to %v, the directly fed calibrator's factor gives %v",
				cands[i].Target, cands[i].CalSeconds, want[i].CalSeconds)
		}
		scale := cands[i].CalSeconds / cands[i].PredSeconds
		corrected = corrected || scale != 1
		if f, n := l.Factor(s.region, cands[i].Target); n == 0 || math.Abs(f-scale) > 1e-12 {
			t.Fatalf("%s: Factor %v from %d audits, verdict scaled by %v", cands[i].Target, f, n, scale)
		}
	}
	if !corrected {
		t.Fatal("the test has no teeth: every factor is 1")
	}
}

// TestHierarchicalFallback: a cold region with a warm global model for
// its targets corrects through the global weights.
func TestHierarchicalFallback(t *testing.T) {
	l := New(Config{MinSamples: 2})
	f := offload.Features{Iterations: 1000, TransferBytes: 4096, CoalescedFrac: 0.5}
	ms := []audit.TargetMeasurement{
		{Target: "cpu/base", PredSeconds: 0.01, ActualSeconds: 0.03},
	}
	// Warm the global model through a different region.
	l.ObserveVerdict("warm1", f, ms)
	l.ObserveVerdict("warm2", f, ms)
	cands := []offload.Candidate{
		{Target: "cpu/base", Kind: offload.KindCPU, PredSeconds: 0.01, CalSeconds: 0.01},
	}
	if prov := l.CorrectFeatures("cold", f, cands); prov != offload.ProvenanceLearned {
		t.Fatalf("cold region with warm global: provenance = %q", prov)
	}
	if m := cands[0].CalSeconds / cands[0].PredSeconds; math.Abs(m-3) > 1e-2 {
		t.Fatalf("global-fallback multiplier = %v, want ~3", m)
	}
}

// TestSnapshotRoundTrip: snapshot -> write -> read -> restore must
// reproduce state, corrections and re-serialized bytes exactly.
func TestSnapshotRoundTrip(t *testing.T) {
	l := New(Config{MinSamples: 2})
	stream := seedStream(5)
	for _, s := range stream {
		l.ObserveVerdict(s.region, s.f, s.ms)
		checkGateCache(t, l)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, l.Snapshot()); err != nil {
		t.Fatal(err)
	}
	first := buf.String()

	s, err := ReadSnapshot(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	restored := New(Config{}) // deliberately another MinSamples: Restore adopts the snapshot's
	if err := restored.Restore(s); err != nil {
		t.Fatal(err)
	}
	checkGateCache(t, restored)
	if !statesEqual(stripCounters(l.State()), stripCounters(restored.State())) {
		t.Fatalf("restored state diverges:\n%+v\n%+v", l.State(), restored.State())
	}
	for _, sp := range stream {
		for _, m := range sp.ms {
			ma, la := l.Multiplier(sp.region, m.Target, m.PredSeconds, sp.f)
			mb, lb := restored.Multiplier(sp.region, m.Target, m.PredSeconds, sp.f)
			if la != lb || math.Float64bits(ma) != math.Float64bits(mb) {
				t.Fatalf("restored multiplier diverges for %s/%s", sp.region, m.Target)
			}
		}
		// Whole verdicts, learned ones included, corrected as before the
		// gate cache — a region the stream never named falls to the globals.
		for _, region := range []string{sp.region, "unseen"} {
			cands := make([]offload.Candidate, len(sp.ms))
			for i, m := range sp.ms {
				cands[i] = offload.Candidate{Target: m.Target, PredSeconds: m.PredSeconds, CalSeconds: m.PredSeconds}
			}
			checkCorrectMatchesReference(t, l, region, sp.f, cands)
			checkCorrectMatchesReference(t, restored, region, sp.f, cands)
		}
	}
	var again bytes.Buffer
	if err := WriteSnapshot(&again, restored.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if again.String() != first {
		t.Fatal("snapshot bytes not stable across restore")
	}
}

func stripCounters(s State) State {
	s.Samples, s.Updates, s.LearnedVerdicts, s.AnalyticalVerdicts = 0, 0, 0, 0
	return s
}

// TestSnapshotRejects exercises the loader's validation.
func TestSnapshotRejects(t *testing.T) {
	cases := map[string]string{
		"future version": `{"version":99,"minSamples":3,"lambda":1,"maxVariance":0.5}`,
		"zero version":   `{"version":0,"minSamples":3,"lambda":1,"maxVariance":0.5}`,
		"bad minSamples": `{"version":1,"minSamples":0,"lambda":1,"maxVariance":0.5}`,
		"bad lambda":     `{"version":1,"minSamples":3,"lambda":-1,"maxVariance":0.5}`,
		"bad dims": `{"version":1,"minSamples":3,"lambda":1,"maxVariance":0.5,
			"global":{"cpu/base":{"n":1,"gram":[[1]],"mom":[1],"sumT2":0}}}`,
		"zero n": `{"version":1,"minSamples":3,"lambda":1,"maxVariance":0.5,
			"global":{"cpu/base":{"n":0,"gram":[],"mom":[],"sumT2":0}}}`,
		"not json": `{{{`,
	}
	for name, in := range cases {
		if _, err := ReadSnapshot(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ReadSnapshot(strings.NewReader(`{"version":1,"minSamples":3,"lambda":1,"maxVariance":0.5}`)); err != nil {
		t.Errorf("the cases' common prefix is itself refused: %v", err)
	}
}

// TestForeignHyperparametersRefused: lambda and maxVariance are constants
// of the build, and sufficient statistics gathered under other values are
// refused by every way into a learner — never re-solved under these. The
// format still carries both, so a snapshot says what wrote it.
func TestForeignHyperparametersRefused(t *testing.T) {
	trained := New(Config{MinSamples: 2})
	for _, s := range seedStream(3) {
		trained.ObserveVerdict(s.region, s.f, s.ms)
	}
	if s := trained.Snapshot(); s.Lambda != ridgeLambda || s.MaxVariance != gateMaxVariance {
		t.Fatalf("snapshot writes lambda %v / maxVariance %v, want the constants", s.Lambda, s.MaxVariance)
	}
	for name, foreign := range map[string]func(*Snapshot){
		"lambda":      func(s *Snapshot) { s.Lambda = 0.5 },
		"maxVariance": func(s *Snapshot) { s.MaxVariance = 0.9 },
	} {
		s := trained.Snapshot()
		foreign(s)
		into := New(Config{})
		if err := into.Restore(s); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("foreign %s: Restore = %v, want a refusal naming it", name, err)
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if changed, err := into.MergeState(data); err == nil || changed {
			t.Errorf("foreign %s: MergeState = %v, %v, want a refusal", name, changed, err)
		}
		if st := into.State(); len(st.Global)+len(st.Regions) != 0 {
			t.Errorf("foreign %s: a refused state left %d global and %d region models behind",
				name, len(st.Global), len(st.Regions))
		}
	}
}

// TestCorrectorZeroStateMatchesEWMA is the parity gate: a runtime whose
// calibrator is a zero-state Learner wrapping an EWMA fallback must
// produce bit-for-bit the decisions of a runtime calibrated by the EWMA
// alone — across the full Polybench suite, both platforms and both the
// classic and synthetic registries, with identically seeded calibrators.
func TestCorrectorZeroStateMatchesEWMA(t *testing.T) {
	platforms := []machine.Platform{machine.PlatformP9V100(), machine.PlatformP8K80()}
	for _, plat := range platforms {
		for _, regName := range []string{"classic", "synthetic"} {
			var regA, regB *offload.Registry
			if regName == "synthetic" {
				regA = offload.SyntheticTargets(plat, 0)
				regB = offload.SyntheticTargets(plat, 0)
			}
			calA := audit.NewCalibrator(0)
			calB := audit.NewCalibrator(0)
			rtA := offload.NewRuntime(offload.Config{
				Platform: plat, Targets: regA, Calibrator: calA})
			lrnB := New(Config{Fallback: calB})
			rtB := offload.NewRuntime(offload.Config{
				Platform: plat, Targets: regB, Calibrator: lrnB})

			// Seed both EWMAs with an identical deterministic stream so
			// the fallback path is exercised with real corrections.
			ids := rtA.Targets().IDs()
			for ki, k := range polybench.Suite() {
				les := make([]audit.TargetMeasurement, len(ids))
				for ti, id := range ids {
					les[ti] = audit.TargetMeasurement{Target: id, LogErr: float64((ki*7+ti*3)%9-4) / 10}
				}
				calA.ObserveVerdict(k.Name, offload.Features{}, les)
				calB.ObserveVerdict(k.Name, offload.Features{}, les)
			}

			for _, k := range polybench.Suite() {
				regionA, err := rtA.Register(k.IR)
				if err != nil {
					t.Fatalf("%s: %v", k.Name, err)
				}
				regionB, err := rtB.Register(k.IR)
				if err != nil {
					t.Fatalf("%s: %v", k.Name, err)
				}
				for _, mode := range []polybench.Mode{polybench.Test, polybench.Benchmark} {
					b := k.Bindings(mode)
					outA, errA := regionA.Decide(b)
					outB, errB := regionB.Decide(b)
					if (errA != nil) != (errB != nil) {
						t.Fatalf("%s/%s %s %v: error mismatch: %v vs %v",
							plat.Name, regName, k.Name, mode, errA, errB)
					}
					if errA != nil {
						continue
					}
					raw, err := regionB.PredictTargets(b)
					if err != nil {
						t.Fatal(err)
					}
					f, err := regionB.Features(b)
					if err != nil {
						t.Fatal(err)
					}
					checkCorrectMatchesReference(t, lrnB, k.Name, f, raw)
					tag := fmt.Sprintf("%s/%s %s %v", plat.Name, regName, k.Name, mode)
					if outA.TargetID != outB.TargetID || outA.Target != outB.Target ||
						outA.SplitFraction != outB.SplitFraction {
						t.Fatalf("%s: verdicts diverge: %s vs %s",
							tag, outA.TargetID, outB.TargetID)
					}
					if outB.Provenance != offload.ProvenanceAnalytical {
						t.Fatalf("%s: zero-state learner provenance = %q", tag, outB.Provenance)
					}
					if len(outA.Candidates) != len(outB.Candidates) {
						t.Fatalf("%s: candidate counts diverge", tag)
					}
					for i := range outA.Candidates {
						ca, cb := outA.Candidates[i], outB.Candidates[i]
						if ca.Target != cb.Target ||
							math.Float64bits(ca.PredSeconds) != math.Float64bits(cb.PredSeconds) ||
							math.Float64bits(ca.CalSeconds) != math.Float64bits(cb.CalSeconds) {
							t.Fatalf("%s: rank %d diverges: %+v vs %+v", tag, i, ca, cb)
						}
					}
				}
			}
		}
	}
}

// TestConcurrentUse drives observes, corrections and snapshots from many
// goroutines — meaningful under -race (wired into the check.sh race run).
func TestConcurrentUse(t *testing.T) {
	l := New(Config{Fallback: audit.NewCalibrator(0), MinSamples: 2})
	stream := seedStream(4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f := offload.Features{Iterations: 100, TransferBytes: 100, CoalescedFrac: 1}
			for i := 0; i < 50; i++ {
				s := stream[(w+i)%len(stream)]
				l.ObserveVerdict(s.region, s.f, s.ms)
				cands := []offload.Candidate{
					{Target: "cpu/base", PredSeconds: 0.01, CalSeconds: 0.01},
					{Target: "gpu/base", PredSeconds: 0.02, CalSeconds: 0.02},
				}
				l.CorrectFeatures(s.region, f, cands)
				if i%10 == 0 {
					l.State()
					l.Stats()
					l.Version()
					var buf bytes.Buffer
					_ = WriteSnapshot(&buf, l.Snapshot())
				}
			}
		}(w)
	}
	wg.Wait()
}

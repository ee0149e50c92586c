package offload

import (
	"errors"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// The equivalence law, stated once (lawTrace) and run over slices of
//
//	{Polybench suite, regiongen regions} × {ModelGuided, Split} ×
//	{no calibrator, per-target factors, feature-driven corrections} ×
//	{classic pair, synthetic registry}
//
// by the tests of this file, nway_test.go and property_test.go: the slot
// programs and the map-form evaluator yield bit-identical results — target
// ID, kind, ranked candidates with their calibrated seconds, split
// fraction, provenance, features — through Decide, DecideVals, Predict,
// PredictTargets and Features. Bit-identical means float64 ==, not
// approximate: the slot programs replay the exact operation order of
// cpumodel.Predict and gpumodel.Predict.

// evaluatorPair builds two runtimes from one configuration that differ
// only in the evaluator pricing their launches: the slot programs every
// runtime outside these tests runs, and the map-form reference behind the
// runtime's unexported hook. The kernels are registered in both.
func evaluatorPair(t *testing.T, cfg Config, kernels ...*ir.Kernel) (slot, ref *Runtime) {
	t.Helper()
	slot, ref = NewRuntime(cfg), NewRuntime(cfg)
	ref.mapEvalOnly = true
	for _, k := range kernels {
		for _, rt := range []*Runtime{slot, ref} {
			if _, err := rt.Register(k); err != nil {
				t.Fatalf("%s: register: %v", k.Name, err)
			}
		}
	}
	return slot, ref
}

// suiteKernels returns the IR of the whole Polybench suite.
func suiteKernels() []*ir.Kernel {
	var ks []*ir.Kernel
	for _, k := range polybench.Suite() {
		ks = append(ks, k.IR)
	}
	return ks
}

// factorCalibrator stands in for the EWMA calibrator (internal/audit
// imports this package): a constant factor per kind, features ignored.
var factorCalibrator = fixedCalibrator{cpu: 1.6, gpu: 0.7}

// featureCalibrator stands in for a learner past its confidence gate: each
// candidate's multiplier is a function of the decision's feature vector
// and the candidate itself, so any difference between the evaluators'
// features moves a calibrated second.
type featureCalibrator struct{}

func (featureCalibrator) CorrectFeatures(_ string, f Features, cands []Candidate) string {
	for i := range cands {
		x := 0.05*math.Log1p(float64(f.Iterations)) - 0.04*math.Log1p(float64(f.TransferBytes)) +
			0.5*f.CoalescedFrac + 0.2*float64(cands[i].order)
		cands[i].CalSeconds = cands[i].PredSeconds * math.Exp(x)
	}
	return ProvenanceLearned
}

func (featureCalibrator) OnCorrectionChange(func(string)) {} // never moves

// lawCalibrators is the calibrator axis of the law.
var lawCalibrators = []Calibrator{nil, factorCalibrator, featureCalibrator{}}

// lawTrace is what one runtime answers at one launch point through every
// entry point the law names, in an order that takes both miss paths of
// the decide body (a fresh evaluation, and a prediction-only cache entry)
// and its hit path.
type lawTrace struct {
	Features            Features
	Fresh, Hit          Decision // Decide on a cold cache, then again
	CPU, GPU            float64  // Predict after an invalidation
	Ranked              []Candidate
	ViaVals, ViaValsHit Decision // DecideVals over Predict's entry, then again
	// AtFraction is every target priced on lawFractions of the iteration
	// space from one bound evaluator, as the split planner prices them:
	// what a launch point shares between its targets (the loadout, the
	// strides) is not scaled, the iteration count is.
	AtFraction [][]float64
}

// lawFractions are the ends of the split planner's bisection and a point
// inside it.
var lawFractions = []float64{0.01, 0.37, 0.99}

func traceLaw(t *testing.T, rt *Runtime, region string, b symbolic.Bindings) lawTrace {
	t.Helper()
	r, err := rt.Region(region)
	if err != nil {
		t.Fatal(err)
	}
	scrub := func(out *Outcome, err error) Decision {
		t.Helper()
		if err != nil {
			t.Fatalf("%s %v: %v", region, b, err)
		}
		return scrubbed(out)
	}
	var tr lawTrace
	if tr.Features, err = r.Features(b); err != nil {
		t.Fatalf("%s %v: features: %v", region, b, err)
	}
	tr.Fresh = scrub(r.Decide(b))
	tr.Hit = scrub(r.Decide(b))
	r.InvalidateDecisions()
	if tr.CPU, tr.GPU, err = r.Predict(b); err != nil {
		t.Fatalf("%s %v: predict: %v", region, b, err)
	}
	if tr.Ranked, err = r.PredictTargets(b); err != nil {
		t.Fatalf("%s %v: predict targets: %v", region, b, err)
	}
	vals := slotVals(t, r, b)
	tr.ViaVals = scrub(r.DecideVals(vals))
	tr.ViaValsHit = scrub(r.DecideVals(vals))
	ev, err := r.bind(b)
	if err != nil {
		t.Fatalf("%s %v: bind: %v", region, b, err)
	}
	for i := 0; i < rt.targets.Len(); i++ {
		secs := make([]float64, len(lawFractions))
		for j, f := range lawFractions {
			if secs[j], err = ev.predictAt(i, f); err != nil {
				t.Fatalf("%s %v: target %d on %v of the space: %v", region, b, i, f, err)
			}
		}
		tr.AtFraction = append(tr.AtFraction, secs)
	}
	ev.release()

	// Within one runtime the entry points are one decision function.
	if tr.Fresh.CacheHit || !tr.Hit.CacheHit || tr.ViaVals.CacheHit || !tr.ViaValsHit.CacheHit {
		t.Fatalf("%s %v: cache hits %v/%v/%v/%v, want miss/hit/miss/hit", region, b,
			tr.Fresh.CacheHit, tr.Hit.CacheHit, tr.ViaVals.CacheHit, tr.ViaValsHit.CacheHit)
	}
	hit, valsHit := tr.Hit, tr.ViaValsHit
	hit.CacheHit, valsHit.CacheHit = false, false
	for _, d := range []Decision{hit, tr.ViaVals, valsHit} {
		if !reflect.DeepEqual(d, tr.Fresh) {
			t.Fatalf("%s %v: one runtime, two verdicts:\n %+v\n %+v", region, b, tr.Fresh, d)
		}
	}
	if cpu, gpu := tr.Fresh.BasePair(); tr.CPU != cpu || tr.GPU != gpu {
		t.Fatalf("%s %v: Predict %v/%v, Decide recorded %v/%v", region, b, tr.CPU, tr.GPU, cpu, gpu)
	}
	return tr
}

// scrubbed returns the outcome's decision without what legitimately
// differs between two calls for one verdict: the wall-clock overhead, and
// the bindings map (DecideVals builds it only for an observer).
func scrubbed(out *Outcome) Decision {
	d := out.Decision
	d.DecisionOverhead, d.Bindings = 0, nil
	return d
}

// slotVals lays b out in the region's canonical parameter order.
func slotVals(t *testing.T, r *Region, b symbolic.Bindings) []int64 {
	t.Helper()
	names := r.ParamNames()
	vals := make([]int64, len(names))
	for i, name := range names {
		v, ok := b[name]
		if !ok {
			t.Fatalf("%s: ParamNames has %q not in bindings %v", r.Name, name, b)
		}
		vals[i] = v
	}
	return vals
}

// checkLaw holds the two runtimes of a pair to the law at one point.
func checkLaw(t *testing.T, slot, ref *Runtime, region string, b symbolic.Bindings) {
	t.Helper()
	got, want := traceLaw(t, slot, region, b), traceLaw(t, ref, region, b)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %v: evaluators diverge:\n slot programs %+v\n map form      %+v", region, b, got, want)
	}
}

// checkLawCounts checks who did the evaluating: every evaluation of the
// first runtime ran the slot programs, none of the second's did, and both
// evaluated equally often.
func checkLawCounts(t *testing.T, slot, ref *Runtime) {
	t.Helper()
	sm, rm := slot.Metrics(), ref.Metrics()
	if sm.Predictions == 0 || sm.CompiledModelEvals != sm.Predictions {
		t.Errorf("slot runtime: %d of %d evaluations ran the slot programs",
			sm.CompiledModelEvals, sm.Predictions)
	}
	if rm.CompiledModelEvals != 0 || rm.Predictions != sm.Predictions {
		t.Errorf("reference runtime: %d evaluations (%d by slot programs), slot runtime %d",
			rm.Predictions, rm.CompiledModelEvals, sm.Predictions)
	}
}

// checkSuiteLaw runs the law over the whole Polybench suite under cfg, in
// the given dataset modes.
func checkSuiteLaw(t *testing.T, cfg Config, modes ...polybench.Mode) {
	t.Helper()
	slot, ref := evaluatorPair(t, cfg, suiteKernels()...)
	for _, k := range polybench.Suite() {
		for _, mode := range modes {
			checkLaw(t, slot, ref, k.Name, k.Bindings(mode))
		}
	}
	checkLawCounts(t, slot, ref)
}

var lawPlatforms = []struct {
	name string
	p    machine.Platform
}{
	{"p9-v100", machine.PlatformP9V100()},
	{"p8-k80", machine.PlatformP8K80()},
}

// TestCompiledRuntimeMatchesInterpreted is the law's widest slice: every
// Polybench kernel, both dataset modes, both paper platforms, the paper's
// selector, with the raw ranking and with per-target factors.
func TestCompiledRuntimeMatchesInterpreted(t *testing.T) {
	for _, plat := range lawPlatforms {
		t.Run(plat.name, func(t *testing.T) {
			for _, cal := range []Calibrator{nil, factorCalibrator} {
				checkSuiteLaw(t, Config{Platform: plat.p, Policy: ModelGuided, Calibrator: cal},
					polybench.Test, polybench.Benchmark)
			}
		})
	}
}

// TestCompiledSplitMatchesInterpreted runs the law under the Split policy
// — the deepest consumer of an evaluator (a 40-step bisection of
// predictFraction, against the calibrated base pair). The chosen split
// fraction is a float64 produced by dozens of chained model evaluations,
// so equality here is a much stronger statement than the
// single-evaluation slices.
func TestCompiledSplitMatchesInterpreted(t *testing.T) {
	plat := machine.PlatformP9V100()
	for _, reg := range []*Registry{nil, SyntheticTargets(plat, 160)} {
		for _, cal := range lawCalibrators {
			checkSuiteLaw(t, Config{Platform: plat, Policy: Split, Targets: reg, Calibrator: cal},
				polybench.Test)
		}
	}
	checkSuiteLaw(t, Config{Platform: machine.PlatformP8K80(), Policy: Split}, polybench.Test)
}

// TestFeaturesCompiledMatchesInterpreted is the slice where the feature
// vector steers the verdict: a calibrator must see the same features
// whichever evaluator produced them, across the full suite, both
// platforms and both dataset modes.
func TestFeaturesCompiledMatchesInterpreted(t *testing.T) {
	for _, plat := range lawPlatforms {
		checkSuiteLaw(t, Config{Platform: plat.p, Calibrator: featureCalibrator{}},
			polybench.Test, polybench.Benchmark)
	}
}

// TestCompiledIterSpaceNoOverflow guards the slot programs' unchecked
// arithmetic: for every suite kernel at the largest dataset the
// iteration-space polynomial must evaluate well inside int64, which the
// checked evaluator (symbolic.Compiled.EvalChecked) verifies while also
// cross-checking the slot-vector result against the map-based
// interpreter. The serving path may then use the unchecked Eval, whose
// wraparound contract is documented at its definition.
func TestCompiledIterSpaceNoOverflow(t *testing.T) {
	rt := NewRuntime(Config{Platform: machine.PlatformP9V100()})
	for _, k := range polybench.Suite() {
		r, err := rt.Register(k.IR)
		if err != nil {
			t.Fatal(err)
		}
		layout := r.compiled.layout
		b := k.Bindings(polybench.Benchmark)
		slots := map[string]int{}
		vals := make([]int64, layout.Len())
		for i, name := range layout.Names() {
			slots[name] = i
			vals[i] = b[name]
		}
		cs, err := symbolic.Compile(r.Attrs.IterSpace, slots)
		if err != nil {
			t.Fatalf("%s: compile iter space: %v", k.Name, err)
		}
		got, err := cs.EvalChecked(vals)
		if err != nil {
			t.Fatalf("%s: iteration space overflows int64 at benchmark size: %v", k.Name, err)
		}
		want, err := r.Attrs.IterSpace.Eval(b)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: compiled iter space = %d, interpreted = %d", k.Name, got, want)
		}
	}
}

// TestRegisterRejectsNonCompilable pins the registration contract: a
// kernel that validates but that the specializer cannot take — here a
// triangular parallel nest, whose iteration space i*n no parameter
// resolves — fails with ErrNotCompilable instead of being parked on a
// slower path, and leaves nothing behind.
func TestRegisterRejectsNonCompilable(t *testing.T) {
	n, i, j := ir.V("n"), ir.V("i"), ir.V("j")
	k := &ir.Kernel{
		Name:   "triangular-nest",
		Params: []string{"n"},
		Arrays: []*ir.Array{ir.Arr("A", ir.F64, n.Mul(n))},
		Body: []ir.Stmt{
			ir.ParFor("i", ir.N(0), n,
				ir.ParFor("j", ir.N(0), i,
					ir.Store(ir.R("A", i.Mul(n).Add(j)), ir.F(1)))),
		},
	}
	if err := k.Validate(); err != nil {
		t.Fatalf("the kernel must be valid IR: %v", err)
	}
	rt := NewRuntime(Config{Platform: machine.PlatformP9V100()})
	r, err := rt.Register(k)
	if !errors.Is(err, ErrNotCompilable) || r != nil {
		t.Fatalf("Register = %v, %v; want ErrNotCompilable", r, err)
	}
	if got := rt.Regions(); len(got) != 0 {
		t.Fatalf("rejected region registered: %v", got)
	}
	if _, err := rt.Region(k.Name); !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("rejected region resolves: %v", err)
	}
	if n := len(rt.DB().Regions); n != 0 {
		t.Fatalf("attribute DB holds %d records of a rejected region", n)
	}
	if m := rt.Metrics(); m.Regions != 0 {
		t.Fatalf("metrics count %d regions", m.Regions)
	}
}

// TestForeignBindingsProject pins how a launch's bindings reach the slot
// programs: projected onto the region's parameters. A name beyond them is
// ignored — the launch is the exact bindings' launch, cache entry included,
// and nothing is priced by the map form — and a parameter left out is
// ErrUnboundSymbol naming it, from every entry point.
func TestForeignBindingsProject(t *testing.T) {
	rt := NewRuntime(Config{Platform: machine.PlatformP9V100(), Policy: Split,
		Calibrator: featureCalibrator{}})
	k, err := polybench.Get("gemm")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rt.Register(k.IR)
	if err != nil {
		t.Fatal(err)
	}
	plain := k.Bindings(polybench.Test)
	foreign := symbolic.Bindings{"unused": 7}
	for name, v := range plain {
		foreign[name] = v
	}
	if _, err := r.Decide(plain); err != nil {
		t.Fatal(err)
	}
	pout, err := r.Decide(plain)
	if err != nil {
		t.Fatal(err)
	}
	fout, err := r.Decide(foreign)
	if err != nil {
		t.Fatalf("foreign-bindings decide: %v", err)
	}
	if !fout.CacheHit {
		t.Fatal("a launch with an extra binding missed the exact bindings' cache entry")
	}
	if fd, pd := scrubbed(fout), scrubbed(pout); !reflect.DeepEqual(fd, pd) {
		t.Fatalf("foreign vs exact verdicts diverge:\n %+v\n %+v", fd, pd)
	}
	fcpu, fgpu, err := r.Predict(foreign)
	if err != nil {
		t.Fatalf("foreign-bindings predict: %v", err)
	}
	if pcpu, pgpu, _ := r.Predict(plain); fcpu != pcpu || fgpu != pgpu {
		t.Fatalf("foreign vs exact predictions diverge: %v/%v vs %v/%v", fcpu, fgpu, pcpu, pgpu)
	}
	if m := rt.Metrics(); m.Predictions != 1 || m.CompiledModelEvals != 1 {
		t.Fatalf("%d evaluations, %d by the slot programs; want 1 and 1 (none by the map form)",
			m.Predictions, m.CompiledModelEvals)
	}

	missing := symbolic.Bindings{"unused": 7}
	_, errDecide := r.Decide(missing)
	_, errLaunch := r.Launch(missing)
	_, _, errPredict := r.Predict(missing)
	_, errTargets := r.PredictTargets(missing)
	_, errFeatures := r.Features(missing)
	for entry, err := range map[string]error{"Decide": errDecide, "Launch": errLaunch,
		"Predict": errPredict, "PredictTargets": errTargets, "Features": errFeatures} {
		if !errors.Is(err, ErrUnboundSymbol) || !strings.Contains(err.Error(), strconv.Quote(r.ParamNames()[0])) {
			t.Errorf("%s without %q: %v, want ErrUnboundSymbol naming it", entry, r.ParamNames()[0], err)
		}
	}
}

package offload

import (
	"slices"
	"testing"

	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/mca"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// TestClassicPairRankedParity is the API-redesign parity gate: with the
// registry at exactly the classic CPU+GPU pair (the default), the ranked
// verdict's top-1 must be bit-for-bit the historical binary rule
// "offload iff gpuSec < cpuSec" — for every Polybench kernel, on both
// paper platforms, in both dataset modes, through both evaluators.
func TestClassicPairRankedParity(t *testing.T) {
	for _, plat := range lawPlatforms {
		for _, path := range []string{"compiled", "interpreted"} {
			t.Run(plat.name+"/"+path, func(t *testing.T) {
				rt := NewRuntime(Config{Platform: plat.p, Policy: ModelGuided})
				rt.mapEvalOnly = path == "interpreted"
				if ids := rt.Targets().IDs(); !slices.Equal(ids, []string{TargetIDCPUBase, TargetIDGPUBase}) {
					t.Fatal("default registry is not the classic pair")
				}
				for _, k := range polybench.Suite() {
					r, err := rt.Register(k.IR)
					if err != nil {
						t.Fatalf("%s: %v", k.Name, err)
					}
					for _, mode := range []polybench.Mode{polybench.Test, polybench.Benchmark} {
						b := k.Bindings(mode)
						cpuSec, gpuSec, err := predictPair(r, b)
						if err != nil {
							t.Fatalf("%s/%v: predict: %v", k.Name, mode, err)
						}
						wantID, wantTarget := TargetIDCPUBase, KindCPU
						if gpuSec < cpuSec {
							wantID, wantTarget = TargetIDGPUBase, KindGPU
						}
						out, err := regionOf(t, rt, k.Name).Decide(b)
						if err != nil {
							t.Fatalf("%s/%v: decide: %v", k.Name, mode, err)
						}
						if out.TargetID != wantID || out.Target != wantTarget {
							t.Errorf("%s/%v: ranked verdict %s/%v, binary rule wants %s/%v (cpu %v, gpu %v)",
								k.Name, mode, out.TargetID, out.Target, wantID, wantTarget, cpuSec, gpuSec)
						}
						if len(out.Candidates) != 2 {
							t.Fatalf("%s/%v: classic pair ranked %d candidates", k.Name, mode, len(out.Candidates))
						}
						if out.Candidates[0].Target != wantID {
							t.Errorf("%s/%v: top-1 candidate %s, want %s",
								k.Name, mode, out.Candidates[0].Target, wantID)
						}
						if c, g := out.BasePair(); c != cpuSec || g != gpuSec {
							t.Errorf("%s/%v: base pair %v/%v, predictions %v/%v",
								k.Name, mode, c, g, cpuSec, gpuSec)
						}
					}
				}
			})
		}
	}
}

// TestSyntheticRankingTotalOrderAndStable pins the N-way ranking
// semantics: with a 4-target registry every ranking is a total order
// (each registered target appears exactly once, ascending by calibrated
// seconds, registry order breaking ties) and repeated calls return the
// identical ranking — decisions are pure functions of the model inputs.
func TestSyntheticRankingTotalOrderAndStable(t *testing.T) {
	plat := machine.PlatformP9V100()
	reg := SyntheticTargets(plat, 160)
	for _, mapForm := range []bool{false, true} {
		rt := NewRuntime(Config{Platform: plat, Threads: 160, Policy: ModelGuided, Targets: reg})
		rt.mapEvalOnly = mapForm
		for _, name := range []string{"gemm", "mvt1", "2dconv", "atax2"} {
			k, err := polybench.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rt.Register(k.IR); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, mode := range []polybench.Mode{polybench.Test, polybench.Benchmark} {
				b := k.Bindings(mode)
				first, err := regionOf(t, rt, name).PredictTargets(b)
				if err != nil {
					t.Fatalf("%s/%v: %v", name, mode, err)
				}
				if len(first) != reg.Len() {
					t.Fatalf("%s/%v: ranked %d of %d targets", name, mode, len(first), reg.Len())
				}
				seen := map[string]bool{}
				for i, c := range first {
					if _, ok := reg.Lookup(c.Target); !ok {
						t.Fatalf("%s/%v: unknown target %q in ranking", name, mode, c.Target)
					}
					if seen[c.Target] {
						t.Fatalf("%s/%v: target %q ranked twice", name, mode, c.Target)
					}
					seen[c.Target] = true
					if c.PredSeconds <= 0 || c.CalSeconds <= 0 {
						t.Fatalf("%s/%v: candidate %d has non-positive time: %+v", name, mode, i, c)
					}
					if i > 0 && first[i-1].CalSeconds > c.CalSeconds {
						t.Fatalf("%s/%v: ranking not ascending at %d: %v > %v",
							name, mode, i, first[i-1].CalSeconds, c.CalSeconds)
					}
				}
				// Stability: re-ranking the same point returns the same
				// ranking, value for value.
				for rep := 0; rep < 4; rep++ {
					again, err := regionOf(t, rt, name).PredictTargets(b)
					if err != nil {
						t.Fatal(err)
					}
					for i := range first {
						if again[i].Target != first[i].Target ||
							again[i].PredSeconds != first[i].PredSeconds ||
							again[i].CalSeconds != first[i].CalSeconds {
							t.Fatalf("%s/%v: ranking unstable at %d: %+v vs %+v",
								name, mode, i, again[i], first[i])
						}
					}
				}
				// The policy-chosen verdict is the ranking's top-1 and the
				// decision carries the full ranking.
				out, err := regionOf(t, rt, name).Decide(b)
				if err != nil {
					t.Fatal(err)
				}
				if out.TargetID != first[0].Target {
					t.Errorf("%s/%v: verdict %s, top-1 %s", name, mode, out.TargetID, first[0].Target)
				}
				if len(out.Candidates) != len(first) {
					t.Errorf("%s/%v: decision carries %d candidates, ranking has %d",
						name, mode, len(out.Candidates), len(first))
				}
			}
		}
	}
}

// TestBasePairFollowsRegistrationOrder pins Decision.BasePair to Predict on
// registries other than the classic pair: the first-registered target of
// each kind wherever the ranking put it, and 0 for a kind that is absent.
func TestBasePairFollowsRegistrationOrder(t *testing.T) {
	plat := machine.PlatformP9V100()
	k, err := polybench.Get("gemm")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct{ targets, firstCPU, firstGPU string }{
		{"synthetic", TargetIDCPUBase, TargetIDGPUBase},
		{"gpu/prev,cpu/smt2,gpu/base,cpu/base", "cpu/smt2", "gpu/prev"},
		{"cpu/smt2,cpu/base", "cpu/smt2", ""},
	} {
		reg, err := ParseTargets(plat, 0, row.targets)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRuntime(Config{Platform: plat, Targets: reg}).Register(k.IR)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []polybench.Mode{polybench.Test, polybench.Benchmark} {
			b := k.Bindings(mode)
			out, err := r.Decide(b)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]float64{"": 0}
			for _, c := range out.Candidates {
				want[c.Target] = c.PredSeconds
			}
			cpuSec, gpuSec := out.BasePair()
			if cpuSec != want[row.firstCPU] || gpuSec != want[row.firstGPU] {
				t.Errorf("%s/%v: BasePair %v/%v, want %s=%v %s=%v", row.targets, mode,
					cpuSec, gpuSec, row.firstCPU, want[row.firstCPU], row.firstGPU, want[row.firstGPU])
			}
			if pc, pg, err := predictPair(r, b); err != nil || pc != cpuSec || pg != gpuSec {
				t.Errorf("%s/%v: PredictTargets %v/%v (%v), BasePair %v/%v", row.targets, mode, pc, pg, err, cpuSec, gpuSec)
			}
		}
	}
}

// TestCompiledSyntheticMatchesInterpreted runs the equivalence law (see
// compiled_test.go) over an N-way registry: the per-target slot programs
// must reproduce the map-form models' ranking bit-for-bit for every
// synthetic target, not just the classic pair, under every calibrator.
func TestCompiledSyntheticMatchesInterpreted(t *testing.T) {
	for _, plat := range lawPlatforms {
		for _, cal := range lawCalibrators {
			checkSuiteLaw(t, Config{Platform: plat.p, Threads: 160,
				Targets: SyntheticTargets(plat.p, 160), Calibrator: cal},
				polybench.Test, polybench.Benchmark)
		}
	}
	// A launch point's coalescing is resolved once per distinct warp
	// geometry and shared by the targets (and the feature vector) that have
	// it. Every shipped GPU is {32, 128 B}; this registry adds a copy of the
	// accelerator with 64-byte transactions, so the law also runs where two
	// targets must not share the walk — at the dataset sizes, and at a size
	// whose row strides (12 elements, 96 bytes) the two geometries class
	// differently.
	plat := machine.PlatformP9V100()
	tx64 := *plat.GPU
	tx64.Name, tx64.L2.LineBytes = plat.GPU.Name+"/tx64", 64
	reg, err := NewRegistry(append(SyntheticTargets(plat, 160).specs,
		TargetSpec{ID: "gpu/tx64", Kind: KindGPU, GPU: &tx64, Link: plat.Link})...)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{ModelGuided, Split} {
		cfg := Config{Platform: plat, Threads: 160, Policy: pol, Targets: reg, Calibrator: featureCalibrator{}}
		checkSuiteLaw(t, cfg, polybench.Test, polybench.Benchmark)
		slot, ref := evaluatorPair(t, cfg, suiteKernels()...)
		differ := 0
		for _, k := range polybench.Suite() {
			b := symbolic.Bindings{}
			for _, param := range k.IR.Params {
				b[param] = 12
			}
			checkLaw(t, slot, ref, k.Name, b)
			cands, err := regionOf(t, slot, k.Name).PredictTargets(b)
			if err != nil {
				t.Fatal(err)
			}
			secs := map[string]float64{}
			for _, c := range cands {
				secs[c.Target] = c.PredSeconds
			}
			if secs["gpu/tx64"] != secs[TargetIDGPUBase] {
				differ++
			}
		}
		if differ == 0 {
			t.Error("no kernel prices differently under 64-byte transactions: the second geometry is not exercised")
		}
	}
}

// TestRegistryRejectsUnregistrableSpecs: a registry holds machines, and
// the split pseudo-target is neither a registrable ID nor a registrable
// kind — it exists only as the kind and ID of a cooperative verdict.
func TestRegistryRejectsUnregistrableSpecs(t *testing.T) {
	p := machine.PlatformP9V100()
	cpu := TargetSpec{ID: TargetIDCPUBase, Kind: KindCPU, CPU: p.CPU}
	for name, specs := range map[string][]TargetSpec{
		"empty registry":      nil,
		"empty ID":            {{Kind: KindCPU, CPU: p.CPU}},
		"reserved split ID":   {{ID: TargetIDSplit, Kind: KindCPU, CPU: p.CPU}},
		"split kind":          {{ID: "split/base", Kind: KindSplit, CPU: p.CPU, GPU: p.GPU}},
		"cpu without machine": {{ID: "cpu/x", Kind: KindCPU}},
		"gpu without machine": {{ID: "gpu/x", Kind: KindGPU}},
		"duplicate ID":        {cpu, cpu},
	} {
		if g, err := NewRegistry(specs...); err == nil {
			t.Errorf("%s: registered %v", name, g.IDs())
		}
	}
	if _, err := NewRegistry(cpu); err != nil {
		t.Fatalf("a one-target registry must build: %v", err)
	}
	// The kind's names are the wire vocabulary of /v1 and /v2 ("target",
	// "kind") and of the trace: they must print what the binary enum
	// printed, and round-trip through JSON.
	for kind, want := range map[TargetKind]string{KindCPU: "cpu", KindGPU: "gpu", KindSplit: "split"} {
		enc, err := kind.MarshalJSON()
		var back TargetKind
		if kind.String() != want || err != nil || string(enc) != `"`+want+`"` ||
			back.UnmarshalJSON(enc) != nil || back != kind {
			t.Errorf("kind %d: String %q, JSON %s (%v), back %d", kind, kind, enc, err, back)
		}
	}
}

// TestOneCPIPerCorePipeline pins what compileRegion shares: the CPU
// targets of a region whose core pipelines agree price work items with one
// *mca.CompiledCPI (cpu/smt2 is a reduced-SMT copy of cpu/base's core),
// and targets on another generation's pipeline get their own. The law
// over the mixed registry, and TestCompiledSyntheticMatchesInterpreted
// and policies.txt over the synthetic one, hold every target's price bit
// for bit to the map-form model, which shares nothing.
func TestOneCPIPerCorePipeline(t *testing.T) {
	p9, p8 := machine.POWER9(), machine.POWER8()
	mixed, err := NewRegistry(
		TargetSpec{ID: "cpu/p9", Kind: KindCPU, CPU: p9},
		TargetSpec{ID: "cpu/p8", Kind: KindCPU, CPU: p8},
		TargetSpec{ID: "cpu/p8-smt2", Kind: KindCPU, CPU: machine.ReducedSMT(p8, 2)},
	)
	if err != nil {
		t.Fatal(err)
	}
	plat := machine.PlatformP9V100()
	for _, c := range []struct {
		name          string
		reg           *Registry
		shared, apart [][2]string
	}{
		{"synthetic", SyntheticTargets(plat, 0), [][2]string{{TargetIDCPUBase, "cpu/smt2"}}, nil},
		{"mixed", mixed, [][2]string{{"cpu/p8", "cpu/p8-smt2"}}, [][2]string{{"cpu/p9", "cpu/p8"}, {"cpu/p9", "cpu/p8-smt2"}}},
	} {
		rt := NewRuntime(Config{Platform: plat, Targets: c.reg})
		cpi := func(r *Region, id string) *mca.CompiledCPI {
			for i, have := range r.rt.targets.IDs() {
				if have == id {
					if p := r.compiled.progs[i].cpu.CPI(); p != nil {
						return p
					}
				}
			}
			t.Fatalf("%s: no CPU target %s with an MCA estimate", c.name, id)
			return nil
		}
		for _, k := range polybench.Suite() {
			r, err := rt.Register(k.IR)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range c.shared {
				if cpi(r, p[0]) != cpi(r, p[1]) {
					t.Errorf("%s %s: %s and %s compiled one core pipeline twice", c.name, k.Name, p[0], p[1])
				}
			}
			for _, p := range c.apart {
				if cpi(r, p[0]) == cpi(r, p[1]) {
					t.Errorf("%s %s: %s and %s share a CPI across pipelines", c.name, k.Name, p[0], p[1])
				}
			}
		}
	}
	checkSuiteLaw(t, Config{Platform: plat, Targets: mixed}, polybench.Test, polybench.Benchmark)
}

package offload

// Property-based model suite: seeded random regions (internal/regiongen)
// drive metamorphic invariants of the analytical models — monotonicity
// in trip count and transfer bytes, the split-bisection bracket
// invariants, and the equivalence law of compiled_test.go (bit-for-bit
// agreement of the two evaluators) on every generated region. Failures print the
// generating Shape, which together with the fixed seed reproduces the
// kernel exactly.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/regiongen"
)

// propTrials bounds each sweep; -short quarters it.
func propTrials(t *testing.T, n int) int {
	if testing.Short() {
		return n / 4
	}
	return n
}

// registerShape registers one rendered kernel in a fresh runtime and
// returns its region.
func registerShape(t *testing.T, rt *Runtime, s regiongen.Shape, name string, pad, translate int64) *Region {
	t.Helper()
	k := s.Build(name, pad, translate)
	if err := k.Validate(); err != nil {
		t.Fatalf("shape %v produced invalid kernel: %v", s, err)
	}
	region, err := rt.Register(k)
	if err != nil {
		t.Fatalf("shape %v failed to register: %v", s, err)
	}
	return region
}

// propRuntime pins Threads to a small fixed count. The CPU model's
// false-sharing term is a step function of the per-thread chunk size
// (it vanishes once neighbouring threads' stores are a cache line
// apart), so monotonicity invariants only hold within one scheduling
// regime; 4 threads with problem sizes ≥ 256 keeps every generated
// shape's chunk·stride·elem at or beyond the line size throughout.
func propRuntime() *Runtime {
	return NewRuntime(Config{Platform: machine.PlatformP9V100(), Threads: 4})
}

// TestPropPredictedTimesMonotoneInTripCount: both predicted times must be
// non-decreasing in the problem size — more iterations can never be
// predicted faster.
func TestPropPredictedTimesMonotoneInTripCount(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	rt := propRuntime()
	scales := []int64{256, 512, 1024, 2048, 4096}
	for trial := 0; trial < propTrials(t, 60); trial++ {
		s := regiongen.NewShape(r)
		region := registerShape(t, rt, s, fmt.Sprintf("mono-%03d", trial), 0, 0)
		prevCPU, prevGPU := -1.0, -1.0
		for _, n := range scales {
			cpu, gpu, err := region.Predict(regiongen.Bindings(n))
			if err != nil {
				t.Fatalf("shape %v n=%d: %v", s, n, err)
			}
			if cpu <= 0 || gpu <= 0 || math.IsNaN(cpu) || math.IsNaN(gpu) {
				t.Fatalf("shape %v n=%d: degenerate prediction cpu=%g gpu=%g", s, n, cpu, gpu)
			}
			// Allow only float-noise regressions (1 part in 1e9).
			if cpu < prevCPU*(1-1e-9) {
				t.Fatalf("shape %v: CPU time shrank with trip count at n=%d: %g -> %g",
					s, n, prevCPU, cpu)
			}
			if gpu < prevGPU*(1-1e-9) {
				t.Fatalf("shape %v: GPU time shrank with trip count at n=%d: %g -> %g",
					s, n, prevGPU, gpu)
			}
			prevCPU, prevGPU = cpu, gpu
		}
	}
}

// TestPropGPUTimeMonotoneInTransferBytes: padding the arrays adds
// transfer bytes and touches nothing else, so the GPU prediction must
// not decrease and the CPU prediction (no transfers) must be unchanged.
func TestPropGPUTimeMonotoneInTransferBytes(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	rtA, rtB := propRuntime(), propRuntime()
	grew := false
	for trial := 0; trial < propTrials(t, 60); trial++ {
		s := regiongen.NewShape(r)
		name := fmt.Sprintf("pad-%03d", trial)
		plain := registerShape(t, rtA, s, name, 0, 0)
		padded := registerShape(t, rtB, s, name, 1<<20, 0)
		for _, n := range []int64{64, 512} {
			b := regiongen.Bindings(n)
			cpu0, gpu0, err := plain.Predict(b)
			if err != nil {
				t.Fatalf("shape %v: %v", s, err)
			}
			cpu1, gpu1, err := padded.Predict(b)
			if err != nil {
				t.Fatalf("shape %v (padded): %v", s, err)
			}
			if cpu1 != cpu0 {
				t.Fatalf("shape %v n=%d: padding transfers changed the CPU model: %g -> %g",
					s, n, cpu0, cpu1)
			}
			if gpu1 < gpu0 {
				t.Fatalf("shape %v n=%d: more transfer bytes predicted faster: %g -> %g",
					s, n, gpu0, gpu1)
			}
			if gpu1 > gpu0 {
				grew = true
			}
		}
	}
	if !grew {
		t.Fatal("a 1MiB pad never moved any GPU prediction — the transfer knob is dead")
	}
}

// TestPropSplitBisectionBracket: invariants of the split search, checked
// identically at every problem size (the scale-invariance of the
// bracket). The returned fraction is 0 (all-GPU), 1 (all-CPU), or an
// interior value; an interior value is only ever produced when the
// [0.01, 0.99] bracket endpoints actually bracket a crossing, an
// all-one-side answer is only produced when its endpoint justifies it,
// and the two sides are monotone along the fraction axis. Exact balance
// at the interior point is deliberately NOT asserted: both sides are
// step functions of the fraction (fractions quantize to integer trip
// counts), so the bisection converges to a jump, not a root.
func TestPropSplitBisectionBracket(t *testing.T) {
	r := rand.New(rand.NewSource(303))
	rt := propRuntime()
	for trial := 0; trial < propTrials(t, 40); trial++ {
		s := regiongen.NewShape(r)
		region := registerShape(t, rt, s, fmt.Sprintf("split-%03d", trial), 0, 0)
		for _, n := range []int64{256, 1024, 4096} {
			ev, err := region.bind(regiongen.Bindings(n))
			if err != nil {
				t.Fatalf("shape %v n=%d: %v", s, n, err)
			}
			f, err := region.bestSplit(ev)
			if err != nil {
				t.Fatalf("shape %v n=%d: %v", s, n, err)
			}
			if f < 0 || f > 1 || math.IsNaN(f) {
				t.Fatalf("shape %v n=%d: fraction %g outside [0, 1]", s, n, f)
			}
			again, err := region.bestSplit(ev)
			if err != nil || again != f {
				t.Fatalf("shape %v n=%d: bestSplit not deterministic: %g vs %g (%v)",
					s, n, f, again, err)
			}

			// Monotone along the fraction axis: host share up => host
			// time up, device share down => device time down. The grid
			// starts at 0.25 so every generated shape stays on one side
			// of the false-sharing chunk threshold (see propRuntime).
			prevCPU, prevGPU := -1.0, math.Inf(1)
			for _, frac := range []float64{0.25, 0.5, 0.75, 0.95} {
				c, g, err := region.predictFraction(ev, frac, 1-frac)
				if err != nil {
					t.Fatalf("shape %v n=%d frac=%g: %v", s, n, frac, err)
				}
				if c < prevCPU*(1-1e-9) {
					t.Fatalf("shape %v n=%d: CPU side not monotone in fraction at %g",
						s, n, frac)
				}
				if g > prevGPU*(1+1e-9) {
					t.Fatalf("shape %v n=%d: GPU side not anti-monotone in fraction at %g",
						s, n, frac)
				}
				prevCPU, prevGPU = c, g
			}

			cpuLo, gpuLo, err := region.predictFraction(ev, 0.01, 0.99)
			if err != nil {
				t.Fatal(err)
			}
			cpuHi, gpuHi, err := region.predictFraction(ev, 0.99, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case f == 0: // all-GPU: CPU loses even at a 1% share
				if cpuLo < gpuLo {
					t.Fatalf("shape %v n=%d: all-GPU verdict but cpu(0.01)=%g < gpu(0.99)=%g",
						s, n, cpuLo, gpuLo)
				}
			case f == 1: // all-CPU: CPU wins even at a 99% share
				if cpuHi > gpuHi {
					t.Fatalf("shape %v n=%d: all-CPU verdict but cpu(0.99)=%g > gpu(0.01)=%g",
						s, n, cpuHi, gpuHi)
				}
			default: // interior: the endpoints must bracket a crossing
				if f < 0.01 || f > 0.99 {
					t.Fatalf("shape %v n=%d: interior fraction %g outside the bisection bracket",
						s, n, f)
				}
				if !(cpuLo < gpuLo && cpuHi > gpuHi) {
					t.Fatalf("shape %v n=%d: interior split %g without a bracketed crossing: "+
						"cpu(0.01)=%g gpu(0.99)=%g cpu(0.99)=%g gpu(0.01)=%g",
						s, n, f, cpuLo, gpuLo, cpuHi, gpuHi)
				}
			}
			ev.release()
		}
	}
}

// TestPropCompiledMatchesInterpretedOnGeneratedRegions runs the
// equivalence law over generated regions: each trial draws a shape and a
// cell of {ModelGuided, Split} × calibrators × {classic, synthetic}, and
// every probe of it must come out bit-for-bit identical through the slot
// programs and the map-form evaluator.
func TestPropCompiledMatchesInterpretedOnGeneratedRegions(t *testing.T) {
	r := rand.New(rand.NewSource(404))
	plat := machine.PlatformP9V100()
	type pair struct{ slot, ref *Runtime }
	cells := map[[3]int]pair{}
	for trial := 0; trial < propTrials(t, 60); trial++ {
		s := regiongen.NewShape(r)
		cell := [3]int{trial % 2, (trial / 2) % len(lawCalibrators), (trial / 6) % 2}
		p, ok := cells[cell]
		if !ok {
			cfg := Config{Platform: plat, Threads: 4, Policy: []Policy{ModelGuided, Split}[cell[0]],
				Calibrator: lawCalibrators[cell[1]]}
			if cell[2] == 1 {
				cfg.Targets = SyntheticTargets(plat, 4)
			}
			p.slot, p.ref = evaluatorPair(t, cfg)
			cells[cell] = p
		}
		name := fmt.Sprintf("xcheck-%03d", trial)
		registerShape(t, p.slot, s, name, 0, 0)
		registerShape(t, p.ref, s, name, 0, 0)
		for probe := 0; probe < 4; probe++ {
			checkLaw(t, p.slot, p.ref, name, regiongen.Bindings(int64(8+r.Intn(2000))))
		}
	}
	if len(cells) != 12 {
		t.Fatalf("%d of the 12 cells drawn", len(cells))
	}
	for _, p := range cells {
		checkLawCounts(t, p.slot, p.ref)
	}
}

// TestPropPredictionsInvariantUnderIterationTranslation: shifting the
// whole iteration space by a constant (with compensated subscripts)
// leaves trip counts, access strides, and transfer bytes untouched, so
// predictions must survive as a small perturbation, never a regime
// change. Not bit-for-bit, for two modeled (and legitimate) reasons:
// a translated row-major subscript carries an extra t·n monomial, and a
// compensated constant term can appear or cancel to zero — and both
// models charge index arithmetic per innermost iteration without
// hoisting loop-invariant address math, which on a tight-bodied nest is
// worth tens of percent. So the invariant here is a ratio band — the
// prediction may shift, never jump regimes — while the exact structural
// invariants (strides, affinity, coalescing class) are asserted
// bit-for-bit by the IPDA translation property test.
func TestPropPredictionsInvariantUnderIterationTranslation(t *testing.T) {
	r := rand.New(rand.NewSource(505))
	rtA, rtB := propRuntime(), propRuntime()
	for trial := 0; trial < propTrials(t, 40); trial++ {
		s := regiongen.NewShape(r)
		name := fmt.Sprintf("shift-%03d", trial)
		base := registerShape(t, rtA, s, name, 0, 0)
		moved := registerShape(t, rtB, s, name, 0, 7)
		for _, n := range []int64{256, 1024} {
			b := regiongen.Bindings(n)
			c0, g0, err := base.Predict(b)
			if err != nil {
				t.Fatalf("shape %v: %v", s, err)
			}
			c1, g1, err := moved.Predict(b)
			if err != nil {
				t.Fatalf("shape %v (translated): %v", s, err)
			}
			if rc, rg := c1/c0, g1/g0; rc < 0.5 || rc > 2 || rg < 0.5 || rg > 2 {
				t.Fatalf("shape %v n=%d: translation changed the regime: (%g, %g) vs (%g, %g)",
					s, n, c0, g0, c1, g1)
			}
		}
	}
}

// TestPropDeterministicForFixedSeed: the generator itself must be
// deterministic — same seed, same shapes — or no failure is reproducible.
func TestPropDeterministicForFixedSeed(t *testing.T) {
	a, b := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		if sa, sb := regiongen.NewShape(a), regiongen.NewShape(b); sa != sb {
			t.Fatalf("draw %d diverged: %v vs %v", i, sa, sb)
		}
	}
}

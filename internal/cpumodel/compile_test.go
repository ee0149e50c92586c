package cpumodel

import (
	"testing"

	"github.com/hybridsel/hybridsel/internal/ipda"
	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// compiledFixture is what the offload runtime would hand to Compile for
// one kernel: the interpreted analysis and the Shape compiled from it.
type compiledFixture struct {
	an    *ipda.Result
	shape *ipda.Shape
}

func buildFixture(t *testing.T, k *ir.Kernel) *compiledFixture {
	t.Helper()
	an, err := ipda.Analyze(k, ir.DefaultCountOptions())
	if err != nil {
		t.Fatalf("%s: ipda: %v", k.Name, err)
	}
	shape, err := ipda.CompileShape(an, k.Params, 128)
	if err != nil {
		t.Fatalf("%s: shape: %v", k.Name, err)
	}
	return &compiledFixture{an: an, shape: shape}
}

// point resolves the shape at b, as the runtime does once per launch.
func (f *compiledFixture) point(b symbolic.Bindings) *ipda.Point {
	pt := f.shape.NewPoint()
	for name, v := range b {
		if i, ok := f.shape.Slots[name]; ok {
			pt.Vals[i] = v
		}
	}
	f.shape.Resolve(pt, 0.5)
	return pt
}

// TestCompiledPredictMatchesInterpreted pins the tentpole contract: the
// compiled CPU model must be bit-for-bit identical to the interpreted
// Predict — full Prediction struct equality — for every Polybench
// kernel, dataset mode, platform, and split fraction.
func TestCompiledPredictMatchesInterpreted(t *testing.T) {
	platforms := []machine.Platform{machine.PlatformP9V100(), machine.PlatformP8K80()}
	fracs := []float64{0, 0.25, 0.62}
	for _, pk := range polybench.Suite() {
		k := pk.IR
		f := buildFixture(t, k)
		for _, plat := range platforms {
			c, err := Compile(CompileInput{
				Kernel: k, CPU: plat.CPU,
				Shape: f.shape,
			})
			if err != nil {
				t.Fatalf("%s on %s: compile: %v", pk.Name, plat.Name, err)
			}
			for _, mode := range []polybench.Mode{polybench.Test, polybench.Benchmark} {
				b := pk.Bindings(mode)
				opt := ir.CountOptions{DefaultTrip: 128, BranchProb: 0.5,
					Bindings: ir.MidpointBindings(k, b)}
				pt := f.point(b)
				for _, frac := range fracs {
					want, err := Predict(Input{
						Kernel: k, CPU: plat.CPU, Bindings: b,
						CountOpt: opt, IPDA: f.an, IterFraction: frac,
					})
					if err != nil {
						t.Fatalf("%s on %s: %v", pk.Name, plat.Name, err)
					}
					got, err := c.Predict(pt, frac)
					if err != nil {
						t.Fatalf("%s on %s: compiled: %v", pk.Name, plat.Name, err)
					}
					if got != want {
						t.Errorf("%s on %s (%s, frac=%g):\ncompiled    %+v\ninterpreted %+v",
							pk.Name, plat.Name, mode, frac, got, want)
					}
				}
			}
		}
	}
}

// TestCompiledPredictFixedCPI covers the FixedCPI estimator compilation.
func TestCompiledPredictFixedCPI(t *testing.T) {
	plat := machine.PlatformP9V100()
	est := FixedCPI{CPI: 0.8}
	for _, pk := range polybench.Suite()[:6] {
		k := pk.IR
		f := buildFixture(t, k)
		c, err := Compile(CompileInput{
			Kernel: k, CPU: plat.CPU, Estimator: est,
			Shape: f.shape,
		})
		if err != nil {
			t.Fatalf("%s: compile: %v", pk.Name, err)
		}
		b := pk.Bindings(polybench.Test)
		opt := ir.CountOptions{DefaultTrip: 128, BranchProb: 0.5,
			Bindings: ir.MidpointBindings(k, b)}
		want, err := Predict(Input{
			Kernel: k, CPU: plat.CPU, Bindings: b, CountOpt: opt,
			IPDA: f.an, Estimator: est,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Predict(f.point(b), 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: compiled %+v != interpreted %+v", pk.Name, got, want)
		}
	}
}

// TestCompileRejectsUnknownEstimator keeps exotic estimators on the
// interpreted path.
func TestCompileRejectsUnknownEstimator(t *testing.T) {
	pk := polybench.Suite()[0]
	f := buildFixture(t, pk.IR)
	plat := machine.PlatformP9V100()
	_, err := Compile(CompileInput{
		Kernel: pk.IR, CPU: plat.CPU, Estimator: fakeEstimator{},
		Shape: f.shape,
	})
	if err == nil {
		t.Fatal("unknown estimator compiled; want error")
	}
}

type fakeEstimator struct{}

func (fakeEstimator) CyclesPerWorkItem(*ir.Kernel, *machine.CPU, ir.CountOptions) (float64, error) {
	return 1, nil
}
func (fakeEstimator) Name() string { return "fake" }

package gpumodel

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

// TestCompiledPredictMatchesInterpreted pins the tentpole contract on
// the GPU side: full Prediction struct equality between the compiled
// and interpreted models for every Polybench kernel, mode, platform,
// option set, and split fraction.
func TestCompiledPredictMatchesInterpreted(t *testing.T) {
	platforms := []machine.Platform{machine.PlatformP9V100(), machine.PlatformP8K80()}
	optSets := []Options{
		DefaultOptions(),
		{Coalescing: UseIPDA, OMPRep: true, IncludeTransfer: true, CacheAware: false},
		{Coalescing: AssumeAllCoalesced, OMPRep: false, IncludeTransfer: false, CacheAware: true},
		{Coalescing: AssumeAllUncoalesced, OMPRep: true, IncludeTransfer: true, CacheAware: true},
	}
	fracs := []float64{0, 0.25, 0.62}
	for _, pk := range polybench.Suite() {
		k := pk.IR
		f := buildFixture(t, k)
		for _, plat := range platforms {
			for oi, opts := range optSets {
				c, err := Compile(CompileInput{
					Kernel: k, GPU: plat.GPU, Link: plat.Link, Options: opts,
					Shape: f.shape,
				})
				if err != nil {
					t.Fatalf("%s on %s opts[%d]: compile: %v", pk.Name, plat.Name, oi, err)
				}
				for _, mode := range []polybench.Mode{polybench.Test, polybench.Benchmark} {
					b := pk.Bindings(mode)
					opt := ir.CountOptions{DefaultTrip: 128, BranchProb: 0.5,
						Bindings: ir.MidpointBindings(k, b)}
					pt := f.point(b)
					for _, frac := range fracs {
						want, err := Predict(Input{
							Kernel: k, GPU: plat.GPU, Link: plat.Link,
							Bindings: b, CountOpt: opt, IPDA: f.an,
							Options: opts, IterFraction: frac,
						})
						if err != nil {
							t.Fatalf("%s on %s opts[%d]: %v", pk.Name, plat.Name, oi, err)
						}
						got, err := c.Predict(pt, frac)
						if err != nil {
							t.Fatalf("%s on %s opts[%d]: compiled: %v", pk.Name, plat.Name, oi, err)
						}
						if got != want {
							t.Errorf("%s on %s (%s, opts[%d], frac=%g):\ncompiled    %+v\ninterpreted %+v",
								pk.Name, plat.Name, mode, oi, frac, got, want)
						}
					}
				}
			}
		}
	}
}

// TestCompileRequiresIPDAForCoalescing mirrors the interpreted error: the
// compiled model reads its stride analysis off the region's Shape, and
// there is no compiling without one.
func TestCompileRequiresIPDAForCoalescing(t *testing.T) {
	pk := polybench.Suite()[0]
	plat := machine.PlatformP9V100()
	_, err := Compile(CompileInput{
		Kernel: pk.IR, GPU: plat.GPU, Link: plat.Link,
		Options: DefaultOptions(), Shape: nil,
	})
	if err == nil {
		t.Fatal("compile succeeded without IPDA under UseIPDA coalescing")
	}
}

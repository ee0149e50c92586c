package offload

import (
	"testing"

	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

func splitRT(t *testing.T, kernels ...string) *Runtime {
	t.Helper()
	rt := NewRuntime(Config{Platform: machine.PlatformP9V100(), Policy: Split})
	for _, name := range kernels {
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

func TestSplitDegeneratesToSingleTarget(t *testing.T) {
	// gemm at scale is overwhelmingly GPU-favoured: the split collapses
	// to all-GPU. gesummv is CPU-favoured: all-CPU.
	rt := splitRT(t, "gemm", "gesummv")
	b := symbolic.Bindings{"n": 4096}
	out, err := regionOf(t, rt, "gemm").Launch(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.TargetID != TargetIDGPUBase {
		t.Fatalf("gemm split target = %v (fraction %v)", out.Target, out.SplitFraction)
	}
	out, err = regionOf(t, rt, "gesummv").Launch(symbolic.Bindings{"n": 1100})
	if err != nil {
		t.Fatal(err)
	}
	if out.TargetID != TargetIDCPUBase {
		t.Fatalf("gesummv split target = %v (fraction %v)", out.Target, out.SplitFraction)
	}
}

func TestSplitBalancedKernel(t *testing.T) {
	// mvt2 in benchmark mode has near-equal CPU and GPU times: the
	// selector should genuinely split, and the cooperative execution
	// should beat both single-target executions.
	rt := splitRT(t, "mvt2")
	b := symbolic.Bindings{"n": 9600}
	out, err := regionOf(t, rt, "mvt2").Launch(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.Target != KindSplit || out.TargetID != TargetIDSplit {
		t.Skipf("model did not choose a split (target %v, fraction %.2f); "+
			"balance point moved", out.Target, out.SplitFraction)
	}
	if out.SplitFraction <= 0.03 || out.SplitFraction >= 0.97 {
		t.Fatalf("split fraction = %v", out.SplitFraction)
	}
	cpuFull, err := regionOf(t, rt, "mvt2").ExecuteTarget(TargetIDCPUBase, b)
	if err != nil {
		t.Fatal(err)
	}
	gpuFull, err := regionOf(t, rt, "mvt2").ExecuteTarget(TargetIDGPUBase, b)
	if err != nil {
		t.Fatal(err)
	}
	best := cpuFull
	if gpuFull < best {
		best = gpuFull
	}
	if out.ActualSeconds >= best {
		t.Fatalf("split %.3gs not faster than best single target %.3gs "+
			"(cpu %.3g, gpu %.3g, f=%.2f)",
			out.ActualSeconds, best, cpuFull, gpuFull, out.SplitFraction)
	}
}

func TestSplitPredictionMonotonicity(t *testing.T) {
	// The split search relies on cpu(f) increasing and gpu(1-f)
	// decreasing; verify on a real kernel.
	rt := splitRT(t, "mvt2")
	r, err := rt.Region("mvt2")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := r.bind(symbolic.Bindings{"n": 9600})
	if err != nil {
		t.Fatal(err)
	}
	defer ev.release()
	var prevCPU, prevGPU float64
	for i, f := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		c, g, err := r.predictFraction(ev, f, 1-f)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if c < prevCPU {
				t.Fatalf("cpu(f) not increasing at f=%v: %v < %v", f, c, prevCPU)
			}
			if g > prevGPU {
				t.Fatalf("gpu(1-f) not decreasing at f=%v: %v > %v", f, g, prevGPU)
			}
		}
		prevCPU, prevGPU = c, g
	}
}

func TestSplitStringers(t *testing.T) {
	if KindSplit.String() != "split" || Split.Name() != "split" {
		t.Fatal("split stringers")
	}
}

package offload

import (
	"testing"

	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

func TestProfileMeasuresBranchRate(t *testing.T) {
	// corr_std's eps-conditional is essentially never taken with
	// non-degenerate data: the profile should discover a take-rate far
	// from the 50% heuristic.
	rt := NewRuntime(Config{Platform: machine.PlatformP9V100(), Policy: ModelGuided})
	k, _ := polybench.Get("corr_std")
	if _, err := rt.Register(k.IR); err != nil {
		t.Fatal(err)
	}
	b := symbolic.Bindings{"n": 256}
	p, err := regionOf(t, rt, "corr_std").ProfileBranches(b)
	if err != nil {
		t.Fatal(err)
	}
	if p.Branches == 0 {
		t.Fatal("no branches observed in a conditional kernel")
	}
	if p.BranchProb > 0.1 {
		t.Fatalf("eps branch take rate = %v, want ~0", p.BranchProb)
	}
}

func TestProfileShiftsAsymmetricPrediction(t *testing.T) {
	// A conditional whose then-arm is far more expensive than its
	// else-arm: with synthetic data the branch is taken ~25% of the
	// time, so the profiled prediction must drop below the 50% one.
	n := ir.V("n")
	k := &ir.Kernel{
		Name:   "asym",
		Params: []string{"n"},
		Arrays: []*ir.Array{ir.Arr("A", ir.F64, n)},
		Body: []ir.Stmt{
			ir.ParFor("i", ir.N(0), n,
				ir.WhenElse(ir.Cmp(ir.LT, ir.Ld("A", ir.V("i")), ir.F(0.25)),
					[]ir.Stmt{
						ir.Set("acc", ir.F(0)),
						ir.For("k", ir.N(0), n,
							ir.AccumS("acc", ir.FSqrt(ir.FDiv(ir.Ld("A", ir.V("k")), ir.F(3))))),
						ir.Store(ir.R("A", ir.V("i")), ir.S("acc")),
					},
					[]ir.Stmt{ir.Store(ir.R("A", ir.V("i")), ir.F(0))})),
		},
	}
	rt := NewRuntime(Config{Platform: machine.PlatformP9V100(), Policy: ModelGuided})
	if _, err := rt.Register(k); err != nil {
		t.Fatal(err)
	}
	b := symbolic.Bindings{"n": 2048}
	before, _, err := regionOf(t, rt, "asym").Predict(b)
	if err != nil {
		t.Fatal(err)
	}
	p, err := regionOf(t, rt, "asym").ProfileBranches(b)
	if err != nil {
		t.Fatal(err)
	}
	if p.BranchProb < 0.05 || p.BranchProb > 0.45 {
		t.Fatalf("take rate = %v, want ~0.25", p.BranchProb)
	}
	after, _, err := regionOf(t, rt, "asym").Predict(b)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("profiled prediction %.4g should be below heuristic %.4g",
			after, before)
	}
}

func TestProfileBranchlessKernel(t *testing.T) {
	rt := NewRuntime(Config{Platform: machine.PlatformP9V100(), Policy: ModelGuided})
	k, _ := polybench.Get("gemm")
	if _, err := rt.Register(k.IR); err != nil {
		t.Fatal(err)
	}
	// gemm's only branches are loop back-edges (reported via Op, not
	// Branch): the profile stays at the 50% default and predictions are
	// unchanged.
	b := symbolic.Bindings{"n": 128}
	before, _, err := regionOf(t, rt, "gemm").Predict(b)
	if err != nil {
		t.Fatal(err)
	}
	p, err := regionOf(t, rt, "gemm").ProfileBranches(b)
	if err != nil {
		t.Fatal(err)
	}
	if p.BranchProb != 0.5 {
		t.Fatalf("branchless kernel profile = %v", p.BranchProb)
	}
	after, _, err := regionOf(t, rt, "gemm").Predict(b)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatal("profile changed prediction of a branchless kernel")
	}
}

func TestProfileBalancedBranch(t *testing.T) {
	// A data-dependent 50/50 conditional: the profile should land near
	// one half (synthetic values hash-split uniformly).
	n := ir.V("n")
	k := &ir.Kernel{
		Name:   "coin",
		Params: []string{"n"},
		Arrays: []*ir.Array{ir.Arr("A", ir.F64, n)},
		Body: []ir.Stmt{
			ir.ParFor("i", ir.N(0), n,
				ir.WhenElse(ir.Cmp(ir.GT, ir.Ld("A", ir.V("i")), ir.F(0.5)),
					[]ir.Stmt{ir.Store(ir.R("A", ir.V("i")), ir.F(1))},
					[]ir.Stmt{ir.Store(ir.R("A", ir.V("i")), ir.F(0))})),
		},
	}
	rt := NewRuntime(Config{Platform: machine.PlatformP9V100(), Policy: ModelGuided})
	if _, err := rt.Register(k); err != nil {
		t.Fatal(err)
	}
	p, err := regionOf(t, rt, "coin").ProfileBranches(symbolic.Bindings{"n": 4096})
	if err != nil {
		t.Fatal(err)
	}
	if p.BranchProb < 0.25 || p.BranchProb > 0.75 {
		t.Fatalf("coin-flip take rate = %v, want ~0.5", p.BranchProb)
	}
}

func TestProfileErrors(t *testing.T) {
	rt := NewRuntime(Config{Platform: machine.PlatformP9V100()})
	k, _ := polybench.Get("gemm")
	if _, err := rt.Register(k.IR); err != nil {
		t.Fatal(err)
	}
	if _, err := regionOf(t, rt, "gemm").ProfileBranches(nil); err == nil {
		t.Fatal("profile without bindings accepted")
	}
}

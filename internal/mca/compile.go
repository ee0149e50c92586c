package mca

import (
	"fmt"
	"maps"

	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/machine"
)

// CompiledCPI is EstimateCyclesPerIter specialized to one (kernel, CPU)
// pair: the expensive part — lowering plus the per-block steady-state
// scheduler simulation — runs once at compile time, because a block's
// CyclesPerIter depends only on its ops and the CPU model, never on its
// Trips. What remains per evaluation is re-deriving each block's Trips
// from the bindings, which this type replays through the recorded factor
// chains (enclosing-loop trip counts and branch-arm probabilities) in
// the exact order the lowerer computes them, making CyclesPerWorkItem
// bit-for-bit identical to the interpreted estimate.
type CompiledCPI struct {
	blocks []compiledCPIBlock
}

type compiledCPIBlock struct {
	cpi     float64
	factors []compiledFactor
}

type compiledFactor struct {
	kind uint8 // factorLoop / factorThen / factorElse
	trip ir.CompiledTrip
}

// SamePipeline reports whether two CPUs agree on all CompileCPI reads of
// them — dispatch width, pipes per unit, op table — so one's serves both.
func SamePipeline(a, b *machine.CPU) bool {
	return a.DispatchWidth == b.DispatchWidth && a.Ops == b.Ops && maps.Equal(a.Units, b.Units)
}

// CompileCPI lowers and analyzes one work item of k on cpu, compiling
// the per-block trip chains against the given slot layout. bound is the
// name set the evaluation-time (midpoint/fraction-augmented) slot vector
// binds.
func CompileCPI(k *ir.Kernel, cpu *machine.CPU, slots map[string]int, bound map[string]bool) (*CompiledCPI, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	// Block op structure is bindings-independent, so lowering under the
	// default static heuristics yields the same blocks every binding sees.
	lw := &lowerer{k: k, opt: ir.DefaultCountOptions(),
		prog: &Program{Kernel: k.Name}, rec: &tripRecorder{}}
	lw.open("body", 1)
	lw.stmts(k.InnerBody())
	lw.close()

	if len(lw.rec.out) != len(lw.prog.Blocks) {
		return nil, fmt.Errorf("mca: compile: recorded %d factor paths for %d blocks",
			len(lw.rec.out), len(lw.prog.Blocks))
	}
	c := &CompiledCPI{blocks: make([]compiledCPIBlock, len(lw.prog.Blocks))}
	for i := range lw.prog.Blocks {
		cb := compiledCPIBlock{cpi: analyzeBlock(&lw.prog.Blocks[i], cpu).CyclesPerIter}
		for _, f := range lw.rec.out[i] {
			cf := compiledFactor{kind: f.kind}
			if f.kind == factorLoop {
				ct, err := ir.CompileTrip(f.loop, slots, bound)
				if err != nil {
					return nil, err
				}
				cf.trip = ct
			}
			cb.factors = append(cb.factors, cf)
		}
		c.blocks[i] = cb
	}
	return c, nil
}

// CyclesPerWorkItem evaluates the estimate under the augmented slot
// vector, replicating EstimateCyclesPerIter with CountOptions{
// DefaultTrip: defaultTrip, BranchProb: branchProb, Bindings: <vals>}.
func (c *CompiledCPI) CyclesPerWorkItem(vals []int64, branchProb float64, defaultTrip int64) float64 {
	var cycles float64
	for i := range c.blocks {
		b := &c.blocks[i]
		// Replay the lowerer's Trips chain: each open() multiplies the
		// enclosing block's Trips by one factor, so a left fold over the
		// recorded path reproduces the same sequence of multiplies
		// (float multiplication is commutative bit-for-bit).
		v := 1.0
		for j := range b.factors {
			f := &b.factors[j]
			switch f.kind {
			case factorLoop:
				v = f.trip.Count(vals, defaultTrip) * v
			case factorThen:
				v = v * branchProb
			case factorElse:
				v = v * (1 - branchProb)
			}
		}
		cycles += b.cpi * v
	}
	return cycles
}

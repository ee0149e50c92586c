package offload

import (
	"fmt"
	"sync"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/cpumodel"
	"github.com/hybridsel/hybridsel/internal/gpumodel"
	"github.com/hybridsel/hybridsel/internal/ipda"
	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// targetProg is one registry target's compiled analytical model. Exactly
// one of cpu/gpu is non-nil, matching the target's kind.
type targetProg struct {
	cpu *cpumodel.Compiled
	gpu *gpumodel.Compiled
}

// compiledModels is a region's decision program: every registered
// target's analytical model specialized at Register time to the kernel,
// descriptor and configuration. The expensive launch-invariant work —
// MCA pipeline simulation, stride analysis compilation, expression
// walking, binding canonicalization layout — happens once here per
// target; each subsequent evaluation is slot-vector polynomial
// evaluation producing bit-for-bit the map-form models' output (pinned
// by the equivalence law in compiled_test.go). The kernel-shape analyses
// (layout, augment, count, IPDA compilation) are shared across targets:
// only the machine-specific model specialization is per-target.
//
// Every registered region has one: compilation is all-or-nothing across
// targets, and a region it rejects fails Register with ErrNotCompilable.
// The programs price every launch: Region.bind projects the launch's
// bindings onto the kernel parameters and refuses a launch that leaves one
// out.
type compiledModels struct {
	layout *attrdb.KeyLayout
	aug    *ir.Augment
	// progs is indexed by registry position.
	progs []targetProg
	pool  sync.Pool // of *slotVecs

	// Decision feature programs (see Region.Features): the iteration
	// space and transfer-byte expressions as slot polynomials, and the
	// compiled IPDA result for the coalesced fraction — evaluated only
	// when a Calibrator is configured.
	iterProg  symbolic.Compiled
	bytesProg symbolic.Compiled
	ipda      *ipda.CompiledResult
}

// compileRegion specializes every registered target's model for a region
// at Register time. The regions it rejects are exactly those where the
// map-form evaluation's per-launch validation (attrdb Resolve, model
// errors) could fire under the region's own parameter set.
func compileRegion(r *Region) (*compiledModels, error) {
	k, reg := r.Kernel, r.rt.targets
	layout, err := attrdb.NewKeyLayout(k.Params)
	if err != nil {
		return nil, err
	}
	// Slot layout: parameters in the layout's canonical (sorted) order,
	// parallel loop variables appended for the augmented vectors. A
	// parallel variable shadowing a parameter reuses its slot — the
	// augmentation overwrites it exactly as MidpointBindings overwrites
	// the map entry.
	slots := map[string]int{}
	bound := map[string]bool{}
	for i, name := range layout.Names() {
		slots[name] = i
		bound[name] = true
	}
	n := layout.Len()
	for _, l := range k.ParallelLoops() {
		if _, ok := slots[l.Var]; !ok {
			slots[l.Var] = n
			n++
		}
	}
	// The map-form evaluation validates bindings via Attrs.Resolve before
	// evaluating the models; its possible errors are the iteration space
	// (gated by both model compilers), the thread strides (gated by
	// ipda.CompileResult) and the transfer-byte sum, gated here.
	if !ir.Resolvable(r.Attrs.TransferBytes, bound) {
		return nil, fmt.Errorf("transfer bytes %s not resolvable from parameters", r.Attrs.TransferBytes)
	}
	aug, augBound, err := ir.CompileAugment(k, slots, bound)
	if err != nil {
		return nil, err
	}
	count, err := ir.CompileCount(k, slots, augBound)
	if err != nil {
		return nil, err
	}
	ic, err := ipda.CompileResult(r.Analysis, slots, bound, augBound)
	if err != nil {
		return nil, err
	}
	iterProg, err := symbolic.Compile(r.Attrs.IterSpace, slots)
	if err != nil {
		return nil, err
	}
	bytesProg, err := symbolic.Compile(r.Attrs.TransferBytes, slots)
	if err != nil {
		return nil, err
	}
	progs := make([]targetProg, reg.Len())
	for i := range progs {
		sp := &reg.specs[i]
		switch sp.Kind {
		case KindCPU:
			progs[i].cpu, err = cpumodel.Compile(cpumodel.CompileInput{
				Kernel:      k,
				CPU:         sp.CPU,
				Threads:     sp.Threads,
				IPDA:        ic,
				Count:       count,
				Augment:     aug,
				Slots:       slots,
				Bound:       bound,
				AugBound:    augBound,
				DefaultTrip: defaultTrip,
			})
		case KindGPU:
			progs[i].gpu, err = gpumodel.Compile(gpumodel.CompileInput{
				Kernel:      k,
				GPU:         sp.GPU,
				Link:        sp.Link,
				Options:     gpumodel.DefaultOptions(),
				IPDA:        ic,
				Count:       count,
				Slots:       slots,
				Bound:       bound,
				DefaultTrip: defaultTrip,
			})
		}
		if err != nil {
			return nil, fmt.Errorf("target %s: %w", sp.ID, err)
		}
	}
	cm := &compiledModels{
		layout:    layout,
		aug:       aug,
		progs:     progs,
		iterProg:  iterProg,
		bytesProg: bytesProg,
		ipda:      ic,
	}
	cm.pool.New = func() any {
		return &slotVecs{
			r:       r,
			cm:      cm,
			vals:    make([]int64, n),
			mid:     make([]int64, n),
			scratch: make([]int64, n),
			preds:   make([]float64, len(progs)),
		}
	}
	return cm, nil
}

// slotVecs is the slot-program evaluator of one launch point and its
// scratch state: the raw parameter vector, its midpoint-augmented copy, a
// scratch vector the CPU model's edge probes overwrite, and the
// per-target prediction vector predictAll fills (indexed by registry
// position). Pooled per region, so the steady-state decision path
// allocates only on a cache miss.
type slotVecs struct {
	r  *Region
	cm *compiledModels

	vals, mid, scratch []int64
	preds              []float64
	hash               uint64 // of vals; set by lookup

	// primed reports that mid and branchProb hold this point's values;
	// a cache hit never needs them, so the first model evaluation fills
	// them.
	primed     bool
	branchProb float64
}

// slots returns a pooled slot evaluator of the region, vals unfilled.
func (r *Region) slots() *slotVecs {
	sv := r.compiled.pool.Get().(*slotVecs)
	sv.primed = false
	return sv
}

func (sv *slotVecs) release() { sv.cm.pool.Put(sv) }

func (sv *slotVecs) lookup(c *decisionCache) (decisionEntry, bool) {
	sv.hash = sv.cm.layout.Hash(sv.vals)
	return c.getVec(sv.hash, sv.cm.layout, sv.vals)
}

func (sv *slotVecs) key() (string, uint64) { return sv.cm.layout.Key(sv.vals), sv.hash }

// prime fills the midpoint vector and reads the branch probability once
// per point. No validation of the values is needed: compileRegion proved
// every expression resolvable from the parameters, and bind (or the slot
// count check of DecideVals) proved every parameter bound.
func (sv *slotVecs) prime() {
	if sv.primed {
		return
	}
	copy(sv.mid, sv.vals)
	sv.cm.aug.Midpoint(sv.mid)
	sv.branchProb = sv.r.branchProb()
	sv.primed = true
}

func (sv *slotVecs) predictAt(i int, frac float64) (float64, error) {
	sv.prime()
	if p := &sv.cm.progs[i]; p.cpu != nil {
		cp, err := p.cpu.Predict(sv.vals, sv.mid, sv.scratch, sv.branchProb, frac)
		return cp.Seconds, wrapUnbound(err)
	}
	gp, err := sv.cm.progs[i].gpu.Predict(sv.vals, sv.mid, sv.branchProb, frac)
	return gp.Seconds, wrapUnbound(err)
}

func (sv *slotVecs) predictAll() ([]float64, error) {
	for i := range sv.preds {
		s, err := sv.predictAt(i, 0)
		if err != nil {
			return nil, err
		}
		sv.preds[i] = s
	}
	sv.r.rt.met.compiledEvals.Add(1)
	return sv.preds, nil
}

func (sv *slotVecs) features() (Features, error) {
	return Features{
		Iterations:    sv.cm.iterProg.Eval(sv.vals),
		TransferBytes: sv.cm.bytesProg.Eval(sv.vals),
		CoalescedFrac: sv.cm.ipda.CoalescedFraction(sv.vals, sv.r.rt.warpGeom()),
	}, nil
}

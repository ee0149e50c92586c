package offload

import (
	"fmt"
	"sync"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/cpumodel"
	"github.com/hybridsel/hybridsel/internal/gpumodel"
	"github.com/hybridsel/hybridsel/internal/ipda"
	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/mca"
)

// targetProg is one registry target's compiled analytical model. Exactly
// one of cpu/gpu is non-nil, matching the target's kind.
type targetProg struct {
	cpu *cpumodel.Compiled
	gpu *gpumodel.Compiled
}

// compiledModels is a region's decision program, built at Register time in
// the two halves of the paper's split: the kernel's Shape — everything a
// prediction needs that depends on the launch's values but on no machine,
// compiled once and shared — and per registered target a model that is
// machine arithmetic over a resolved Shape. The expensive launch-invariant
// work — MCA pipeline simulation, stride analysis compilation, expression
// walking, binding canonicalization layout — happens once here; pricing a
// launch is one Shape.Resolve plus N such arithmetics, producing bit-for-bit
// the map-form models' output (pinned by the equivalence law in
// compiled_test.go).
//
// Every registered region has one: compilation is all-or-nothing across
// targets, and a region it rejects fails Register with ErrNotCompilable.
// The programs price every launch: Region.bind projects the launch's
// bindings onto the kernel parameters and refuses a launch that leaves one
// out.
type compiledModels struct {
	layout *attrdb.KeyLayout
	shape  *ipda.Shape
	// progs is indexed by registry position.
	progs []targetProg
	pool  sync.Pool // of *slotVecs
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
	// then the parallel loop variables of the augmented vectors.
	shape, err := ipda.CompileShape(r.Analysis, layout.Names(), ir.DefaultCountOptions().DefaultTrip)
	if err != nil {
		return nil, err
	}
	progs := make([]targetProg, reg.Len())
	for i := range progs {
		sp := &reg.specs[i]
		switch sp.Kind {
		case KindCPU:
			progs[i].cpu, err = cpumodel.Compile(cpumodel.CompileInput{
				Kernel: k, CPU: sp.CPU, Threads: sp.Threads, Shape: shape,
				CPI: sharedCPI(reg, progs[:i], sp.CPU)})
		case KindGPU:
			progs[i].gpu, err = gpumodel.Compile(gpumodel.CompileInput{
				Kernel: k, GPU: sp.GPU, Link: sp.Link, Options: gpumodel.DefaultOptions(), Shape: shape})
		}
		if err != nil {
			return nil, fmt.Errorf("target %s: %w", sp.ID, err)
		}
	}
	cm := &compiledModels{layout: layout, shape: shape, progs: progs}
	cm.pool.New = func() any {
		n := len(progs)
		secs := make([]float64, 2*n)
		return &slotVecs{r: r, cm: cm, pt: shape.NewPoint(), preds: secs[:n:n], cals: secs[n:]}
	}
	return cm, nil
}

// sharedCPI is the MCA estimate of an earlier CPU target on the same core
// pipeline, nil when there is none: cpu/smt2 prices with cpu/base's.
func sharedCPI(reg *Registry, earlier []targetProg, cpu *machine.CPU) *mca.CompiledCPI {
	for j, p := range earlier {
		if p.cpu != nil && mca.SamePipeline(reg.specs[j].CPU, cpu) {
			return p.cpu.CPI()
		}
	}
	return nil
}

// slotVecs is the slot-program evaluator of one launch point and its
// scratch state: the point the region's Shape resolves into (the raw
// parameter vector, first of all), and the registry-ordered per-target
// seconds that predictAll fills and that travel to and from the decision
// cache. Pooled per region, so the decision path allocates nothing.
type slotVecs struct {
	r  *Region
	cm *compiledModels

	pt          *ipda.Point
	preds, cals []float64
	hash        uint64 // of the parameter values; set by bind
	gen         uint64 // of the cache shard when lookup probed it

	// primed reports that pt is resolved at this point; a cache hit never
	// needs that, so the first model evaluation does it.
	primed bool
}

// slots returns a pooled slot evaluator of the region, vals unfilled.
func (r *Region) slots() *slotVecs {
	sv := r.compiled.pool.Get().(*slotVecs)
	sv.primed = false
	return sv
}

func (sv *slotVecs) release() { sv.cm.pool.Put(sv) }

// params is the launch's parameter values, the decision cache's key.
func (sv *slotVecs) params() []int64 { return sv.pt.Vals[:sv.cm.layout.Len()] }

func (sv *slotVecs) lookup() (v verdict, preds, cals []float64, ok bool) {
	v, sv.gen, ok = sv.r.decisions.get(sv.hash, sv.params(), sv.preds, sv.cals)
	return v, sv.preds, sv.cals, ok
}

// store hands the decision cache the generation lookup saw: when the
// region was invalidated in between, what was priced since may be older
// than the invalidation, and the cache drops it (counted, not an error).
func (sv *slotVecs) store(ranked []Candidate, v verdict) {
	for i := range ranked {
		c := &ranked[i]
		sv.preds[c.order], sv.cals[c.order] = c.PredSeconds, c.CalSeconds
	}
	evicted, stale := sv.r.decisions.put(sv.hash, sv.params(), sv.preds, sv.cals, v, sv.gen)
	if evicted > 0 {
		sv.r.rt.met.decisionEvictions.Add(uint64(evicted))
	}
	if stale {
		sv.r.rt.met.decisionStale.Add(1)
	}
}

func (sv *slotVecs) key() string { return sv.cm.layout.Key(sv.params()) }

// prime resolves the region's shape at the point, once, under the static
// assumptions the map form counts with (ir.CountOptions.ForLaunch).
func (sv *slotVecs) prime() {
	if !sv.primed {
		sv.cm.shape.Resolve(sv.pt, ir.DefaultCountOptions().BranchProb)
		sv.primed = true
	}
}

func (sv *slotVecs) predictAt(i int, frac float64) (sec float64, err error) {
	sv.prime()
	if p := &sv.cm.progs[i]; p.cpu != nil {
		sec, err = p.cpu.Seconds(sv.pt, frac)
	} else {
		sec, err = p.gpu.Seconds(sv.pt, frac)
	}
	return sec, wrapInput(err)
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
	sv.prime()
	return Features{
		Iterations:    sv.pt.Iters,
		TransferBytes: sv.pt.TransferBytes,
		CoalescedFrac: sv.pt.Warp(sv.r.rt.warpGeom()).CoalescedFrac,
	}, nil
}

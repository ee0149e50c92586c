package offload

import (
	"fmt"

	"github.com/hybridsel/hybridsel/internal/cpumodel"
	"github.com/hybridsel/hybridsel/internal/gpumodel"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// evaluator prices one launch point — a region under one set of runtime
// values — for the decide body, which never looks at the values itself.
// Every launch is priced by the region's slot programs (slotVecs,
// compiled.go); the map form below is the reference the in-package tests
// hold them to, bit for bit, and is built only under Runtime.mapEvalOnly.
// Both probe and fill the decision cache the same way, by the point's
// parameter values.
type evaluator interface {
	// lookup probes the region's decision cache for the point. A found
	// entry's per-target raw and calibrated seconds come back in registry
	// order; the slices are the evaluator's, valid until release.
	lookup() (v verdict, preds, cals []float64, ok bool)
	// store memoizes v for the point lookup did not find, over the ranked
	// candidates the verdict was picked from.
	store(ranked []Candidate, v verdict)
	// key returns the point's canonical bindings key.
	key() string
	// predictAll evaluates every registered target's model over the
	// whole iteration space, in registry order. The slice is the
	// evaluator's, valid until release.
	predictAll() ([]float64, error)
	// predictAt evaluates registry target i running the fraction frac of
	// the iteration space (the models' convention: 0 means all of it).
	predictAt(i int, frac float64) (float64, error)
	// features evaluates the decision feature vector at the point.
	features() (Features, error)
	// release ends the evaluator's use.
	release()
}

// bind returns the evaluator of a launch under b: the slot programs over b
// projected onto the region's parameters. Names b binds beyond them are
// ignored — nothing the region evaluates can read them — so the launch
// shares the exact bindings' cache entry; a parameter b leaves out is
// ErrUnboundSymbol.
func (r *Region) bind(b symbolic.Bindings) (evaluator, error) {
	sv := r.slots()
	vals := sv.params()
	for i, name := range r.ParamNames() {
		v, ok := b[name]
		if !ok {
			sv.release()
			return nil, fmt.Errorf("%w: region %s is launched without %q", ErrUnboundSymbol, r.Name, name)
		}
		vals[i] = v
	}
	sv.hash = r.compiled.layout.Hash(vals)
	return r.evaluatorOf(sv, b), nil
}

// bindVals is bind for a canonical slot vector — the values in
// ParamNames() order, copied straight into the pooled slot vector: no
// bindings map is built.
func (r *Region) bindVals(vals []int64) (*slotVecs, error) {
	if n := len(r.ParamNames()); len(vals) != n {
		return nil, fmt.Errorf("%w: region %s wants %d parameters, got %d slot values",
			ErrUnboundSymbol, r.Name, n, len(vals))
	}
	sv := r.slots()
	copy(sv.params(), vals)
	sv.hash = r.compiled.layout.Hash(vals)
	return sv, nil
}

// evaluatorOf is the evaluator over a bound sv: sv itself, unless the runtime
// is a test's map-form reference — then the map form over b (or over the
// map the values spell, when the caller has none).
func (r *Region) evaluatorOf(sv *slotVecs, b symbolic.Bindings) evaluator {
	if !r.rt.mapEvalOnly {
		return sv
	}
	if b == nil {
		b = r.bindingsFromVals(sv.params())
	}
	return &mapEval{slotVecs: sv, b: b}
}

// mapEval is the map-form evaluator: every target priced through the
// region's door to the model terms (termsAt), which re-analyses the kernel
// under a bindings map at every call. It keeps the slot evaluator's cache
// probe, so the two forms share one store.
type mapEval struct {
	*slotVecs
	b symbolic.Bindings
}

func (m *mapEval) predictAt(i int, frac float64) (float64, error) {
	t, err := m.r.termsAt(i, m.b, frac)
	return t.seconds(), err
}

// TargetTerms is one registered target's model breakdown at a launch
// point: every term the analytical model priced, not just the seconds the
// ranking reads. Exactly one of CPU and GPU is set, matching Kind.
type TargetTerms struct {
	Target string
	Kind   TargetKind
	CPU    *cpumodel.Prediction
	GPU    *gpumodel.Prediction
}

// seconds is the predicted wall time the terms add up to.
func (t TargetTerms) seconds() float64 {
	if t.CPU != nil {
		return t.CPU.Seconds
	}
	return t.GPU.Seconds
}

// Terms returns every registered target's model breakdown at b, in
// registry order: the terms behind the seconds PredictTargets ranks, which
// equal them bit for bit. A parameter b leaves out is ErrUnboundSymbol, as
// for a launch. It prices the map form afresh and touches no cache or
// counter, so explaining a decision never changes one.
func (r *Region) Terms(b symbolic.Bindings) ([]TargetTerms, error) {
	ev, err := r.bind(b)
	if err != nil {
		return nil, err
	}
	ev.release()
	terms := make([]TargetTerms, r.rt.targets.Len())
	for i := range terms {
		if terms[i], err = r.termsAt(i, b, 0); err != nil {
			return nil, err
		}
	}
	return terms, nil
}

// termsAt is the region's one door to the model terms: registry target i
// priced at b running the fraction frac of the iteration space (the
// models' convention: 0 means all of it), with the runtime's hybrid
// counting — the values in b, parallel indices at their midpoint, the
// paper's static defaults for the rest (ir.CountOptions.ForLaunch). The
// map-form evaluator and Terms read the models through it; the slot
// programs are held to it bit for bit.
func (r *Region) termsAt(i int, b symbolic.Bindings, frac float64) (TargetTerms, error) {
	sp := &r.rt.targets.specs[i]
	t := TargetTerms{Target: sp.ID, Kind: sp.Kind}
	if sp.Kind == KindCPU {
		cp, err := cpumodel.Predict(cpumodel.Input{
			Kernel:       r.Kernel,
			CPU:          sp.CPU,
			Threads:      sp.Threads,
			Bindings:     b,
			IPDA:         r.Analysis,
			IterFraction: frac,
		})
		t.CPU = &cp
		return t, wrapInput(err)
	}
	gp, err := gpumodel.Predict(gpumodel.Input{
		Kernel:       r.Kernel,
		GPU:          sp.GPU,
		Link:         sp.Link,
		Bindings:     b,
		IPDA:         r.Analysis,
		Options:      gpumodel.DefaultOptions(),
		IterFraction: frac,
	})
	t.GPU = &gp
	return t, wrapInput(err)
}

func (m *mapEval) predictAll() ([]float64, error) {
	preds := m.preds
	for i := range preds {
		sec, err := m.predictAt(i, 0)
		if err != nil {
			return nil, err
		}
		preds[i] = sec
	}
	return preds, nil
}

func (m *mapEval) features() (Features, error) {
	iters, err := m.r.Attrs.IterSpace.Eval(m.b)
	if err != nil {
		return Features{}, wrapInput(err)
	}
	bytes, err := m.r.Attrs.TransferBytes.Eval(m.b)
	if err != nil {
		return Features{}, wrapInput(err)
	}
	sum, err := m.r.Analysis.GPUCoalescing(m.b, m.r.rt.warpGeom())
	if err != nil {
		return Features{}, wrapInput(err)
	}
	return Features{
		Iterations:    iters,
		TransferBytes: bytes,
		CoalescedFrac: sum.CoalescedFraction(),
	}, nil
}

// predictFraction evaluates the base CPU/GPU pair's models with the host
// running cpuFrac of the iteration space and the device gpuFrac. Callers
// (the split planner) guarantee the registry has both kinds.
func (r *Region) predictFraction(ev evaluator, cpuFrac, gpuFrac float64) (cpuSec, gpuSec float64, err error) {
	if cpuSec, err = ev.predictAt(r.rt.targets.baseCPU, fracOrZero(cpuFrac)); err != nil {
		return 0, 0, err
	}
	if gpuSec, err = ev.predictAt(r.rt.targets.baseGPU, fracOrZero(gpuFrac)); err != nil {
		return 0, 0, err
	}
	return cpuSec, gpuSec, nil
}

// fracOrZero maps a full-space fraction to the models' zero-value
// convention (0 and 1 both mean "whole iteration space").
func fracOrZero(f float64) float64 {
	if f >= 1 {
		return 0
	}
	return f
}

// bestSplit finds the host share that balances the two models: the CPU
// side's predicted time increases with f and the GPU side's decreases, so
// the makespan max(cpu(f), gpu(1-f)) is minimized where they cross.
func (r *Region) bestSplit(ev evaluator) (float64, error) {
	lo, hi := 0.01, 0.99
	cpuLo, gpuLo, err := r.predictFraction(ev, lo, 1-lo)
	if err != nil {
		return 0, err
	}
	cpuHi, gpuHi, err := r.predictFraction(ev, hi, 1-hi)
	if err != nil {
		return 0, err
	}
	// No crossing: one side dominates over the whole range.
	if cpuLo >= gpuLo {
		return 0, nil // CPU slower even with 1% of the work: all-GPU
	}
	if cpuHi <= gpuHi {
		return 1, nil // CPU faster even with 99% of the work: all-CPU
	}
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		c, g, err := r.predictFraction(ev, mid, 1-mid)
		if err != nil {
			return 0, err
		}
		if c < g {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// planSplit resolves a split request into the chosen registry index — the
// split pseudo-target's (Registry.Len()) with its host fraction, or a base
// target's: it balances the models and only keeps the split when the
// predicted makespan beats the best single target (cpuPred/gpuPred, the
// calibrated base pair) by a meaningful margin — tiny predicted gains are
// inside the models' error bars and not worth the coordination.
func (r *Region) planSplit(ev evaluator, cpuPred, gpuPred float64) (int, float64, error) {
	f, err := r.bestSplit(ev)
	if err != nil {
		return 0, 0, err
	}
	const minGain = 0.10
	useSplit := f > 0.03 && f < 0.97
	if useSplit {
		c, g, err := r.predictFraction(ev, f, 1-f)
		if err != nil {
			return 0, 0, err
		}
		makespan := maxf(c, g)
		best := cpuPred
		if gpuPred < best {
			best = gpuPred
		}
		if makespan > best*(1-minGain) {
			useSplit = false
		}
	}
	switch {
	case useSplit:
		return r.rt.targets.Len(), f, nil
	case gpuPred < cpuPred:
		return r.rt.targets.baseGPU, 0, nil
	default:
		return r.rt.targets.baseCPU, 0, nil
	}
}

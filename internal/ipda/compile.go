package ipda

import (
	"fmt"

	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// CompiledResult is an IPDA Result specialized to a slot layout: every
// affine stride polynomial is compiled to slot-indexed form so the
// downstream cost models can resolve strides per launch without map
// lookups. The evaluation methods replay the interpreted ones (same site
// order, same accumulation order, same error fallbacks), so results are
// bit-for-bit identical.
//
// Whether a stride Eval succeeds depends only on the bound-name set, so
// it is decided here at compile time: thread strides are required to
// resolve (an unresolvable one would make the interpreted GPUCoalescing
// error under the region's own parameters, so CompileResult rejects
// them); inner and outer strides get an ok flag because the
// interpreted paths treat their failures as behavior, not errors.
type CompiledResult struct {
	Sites []CompiledSite
}

// CompiledSite is one access site's compiled stride set.
type CompiledSite struct {
	Weight   float64
	ElemSize int64
	Kind     ir.AccessKind
	HasInner bool

	ThreadAffine bool
	thread       symbolic.Compiled

	OuterAffine bool
	outerOK     bool
	outer       symbolic.Compiled

	InnerAffine bool
	innerOK     bool
	inner       symbolic.Compiled

	// SeqTrip is the innermost sequential loop's compiled trip count,
	// meaningful when SeqDepth >= 2 (the GPU model's re-walked-footprint
	// refinement).
	SeqTrip  ir.CompiledTrip
	SeqDepth int
}

// CompileResult specializes r to the slot layout. bound is the raw
// bindings name set (kernel parameters) — strides are evaluated under
// raw bindings by both models. augBound is the midpoint-augmented name
// set used for sequential-loop trip counts.
func CompileResult(r *Result, slots map[string]int, bound, augBound map[string]bool) (*CompiledResult, error) {
	c := &CompiledResult{Sites: make([]CompiledSite, len(r.Sites))}
	for i := range r.Sites {
		s := &r.Sites[i]
		cs := CompiledSite{
			Weight:       s.Access.Weight,
			ElemSize:     s.Access.Elem.Size(),
			Kind:         s.Access.Kind,
			HasInner:     s.HasInner,
			ThreadAffine: s.ThreadAffine,
			OuterAffine:  s.OuterAffine,
			InnerAffine:  s.InnerAffine,
		}
		if s.ThreadAffine {
			if !ir.Resolvable(s.ThreadStride, bound) {
				return nil, fmt.Errorf("ipda: compile: site %d thread stride %s not resolvable",
					i, s.ThreadStride)
			}
			ct, err := symbolic.Compile(s.ThreadStride, slots)
			if err != nil {
				return nil, err
			}
			cs.thread = ct
		}
		if s.OuterAffine && ir.Resolvable(s.OuterStride, bound) {
			co, err := symbolic.Compile(s.OuterStride, slots)
			if err != nil {
				return nil, err
			}
			cs.outerOK, cs.outer = true, co
		}
		if s.InnerAffine && ir.Resolvable(s.InnerStride, bound) {
			ci, err := symbolic.Compile(s.InnerStride, slots)
			if err != nil {
				return nil, err
			}
			cs.innerOK, cs.inner = true, ci
		}
		seq := sequentialLoopsOf(s.Access.Loops)
		cs.SeqDepth = len(seq)
		if len(seq) >= 2 {
			ct, err := ir.CompileTrip(seq[len(seq)-1], slots, augBound)
			if err != nil {
				return nil, err
			}
			cs.SeqTrip = ct
		}
		c.Sites[i] = cs
	}
	return c, nil
}

// sequentialLoopsOf filters the non-parallel loops of an access context.
func sequentialLoopsOf(loops []*ir.Loop) []*ir.Loop {
	var out []*ir.Loop
	for _, l := range loops {
		if !l.Parallel {
			out = append(out, l)
		}
	}
	return out
}

// ThreadStrideVal evaluates the thread stride under raw bindings.
// Only meaningful when ThreadAffine (compile guarantees resolvability).
func (s *CompiledSite) ThreadStrideVal(vals []int64) int64 {
	return s.thread.Eval(vals)
}

// InnerStrideVal evaluates the inner stride; ok=false reproduces the
// interpreted Eval-error fallback.
func (s *CompiledSite) InnerStrideVal(vals []int64) (int64, bool) {
	if !s.innerOK {
		return 0, false
	}
	return s.inner.Eval(vals), true
}

// OuterStrideVal evaluates the outer stride; ok=false reproduces the
// interpreted Eval-error fallback.
func (s *CompiledSite) OuterStrideVal(vals []int64) (int64, bool) {
	if !s.outerOK {
		return 0, false
	}
	return s.outer.Eval(vals), true
}

// ResolveGPU replicates Site.ResolveGPU: non-affine sites classify as
// NonUniform; affine ones classify their concrete byte stride.
func (s *CompiledSite) ResolveGPU(vals []int64, g WarpGeom) WarpAccess {
	if !s.ThreadAffine {
		return WarpAccess{Class: NonUniform, Transactions: g.WarpSize}
	}
	stride := s.thread.Eval(vals)
	return ClassifyStride(stride*s.ElemSize, s.ElemSize, g)
}

// CoalescedFraction replicates Result.GPUCoalescing(...).CoalescedFraction.
func (c *CompiledResult) CoalescedFraction(vals []int64, g WarpGeom) float64 {
	var coal, total float64
	for i := range c.Sites {
		s := &c.Sites[i]
		wa := s.ResolveGPU(vals, g)
		w := s.Weight
		total += w
		switch wa.Class {
		case Uniform, Coalesced:
			coal += w
		}
	}
	if total == 0 {
		return 1
	}
	return coal / total
}

// Vectorizable replicates Result.Vectorizable over the slot vector.
func (c *CompiledResult) Vectorizable(vals []int64) bool {
	anyInner := false
	for i := range c.Sites {
		s := &c.Sites[i]
		if !s.HasInner {
			continue
		}
		anyInner = true
		if !s.InnerAffine {
			return false
		}
		st, ok := s.InnerStrideVal(vals)
		if !ok {
			return false
		}
		if st != 0 && st != 1 {
			return false
		}
	}
	if anyInner {
		return true
	}
	for i := range c.Sites {
		s := &c.Sites[i]
		if !s.ThreadAffine {
			return false
		}
		st := s.ThreadStrideVal(vals)
		if st != 0 && st != 1 {
			return false
		}
	}
	return true
}

// FalseSharingRisk replicates Result.FalseSharingRisk.
func (c *CompiledResult) FalseSharingRisk(vals []int64, chunkIters, lineBytes int64) float64 {
	var stores, risky float64
	for i := range c.Sites {
		s := &c.Sites[i]
		if s.Kind != ir.AccStore {
			continue
		}
		stores += s.Weight
		if !s.OuterAffine {
			continue
		}
		st, ok := s.OuterStrideVal(vals)
		if !ok {
			continue
		}
		dist := st * chunkIters * s.ElemSize
		if dist < 0 {
			dist = -dist
		}
		if dist > 0 && dist < lineBytes {
			risky += s.Weight
		}
	}
	if stores == 0 {
		return 0
	}
	return risky / stores
}

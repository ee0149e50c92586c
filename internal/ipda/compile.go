package ipda

import (
	"fmt"

	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// Shape is a kernel's launch analysis specialized to a slot layout: the
// executable form of what the paper's compiler leaves in the Program
// Attribute Database. It covers everything about a launch that depends on
// the bound values but on no machine — iteration space, transfer volume,
// per-work-item loadout, every access site's strides and warp classes —
// so a region compiles one Shape, Resolve evaluates it once per launch
// point into a Point, and each target's cost model is machine arithmetic
// over that Point. Resolve is one of the two resolvers that fill a Point;
// ResolveBindings, the map form, is the other, and a model prices either's
// Point with the same code.
//
// Whether a stride Eval succeeds depends only on the bound-name set, so
// it is decided here at compile time: thread strides are required to
// resolve (an unresolvable one would make the interpreted GPUCoalescing
// error under the region's own parameters, so CompileShape rejects
// them); inner and outer strides get an ok flag because the interpreted
// paths treat their failures as behavior, not errors.
type Shape struct {
	sites []compiledSite

	// Slots is the layout: the parameters in the order CompileShape was
	// given them, then the parallel loop variables the augmented vectors
	// bind (one shadowing a parameter reuses its slot — the augmentation
	// overwrites it exactly as MidpointBindings overwrites the map entry).
	// Bound names the former, AugBound also the latter.
	Slots           map[string]int
	Bound, AugBound map[string]bool

	// Augment writes the parallel loop variables into a slot vector, Count
	// is the per-work-item loadout counter over an augmented vector, and
	// DefaultTrip the count both assume for a loop that does not resolve.
	Augment     *ir.Augment
	Count       *ir.CountProgram
	DefaultTrip int64

	iters, bytes symbolic.Compiled
}

// compiledSite is one access site's SitePoint with the analysis' facts
// filled in, and the programs Resolve runs to fill in the rest.
type compiledSite struct {
	fixed                SitePoint
	thread, outer, inner symbolic.Compiled
	seqTrip              ir.CompiledTrip
}

// CompileShape specializes the analysis r of a kernel to the slot layout
// that starts with params (the kernel's parameters, in the caller's
// canonical order). It fails — and with it the region's registration —
// when the iteration space, the transfer volume or a thread stride does
// not resolve from the parameters alone: exactly the configurations in
// which the map-form evaluation would error at every launch.
func CompileShape(r *Result, params []string, defaultTrip int64) (*Shape, error) {
	k := r.Kernel
	if defaultTrip == 0 {
		defaultTrip = ir.DefaultCountOptions().DefaultTrip
	}
	sh := &Shape{Slots: map[string]int{}, Bound: map[string]bool{}, DefaultTrip: defaultTrip}
	for i, name := range params {
		sh.Slots[name] = i
		sh.Bound[name] = true
	}
	for _, l := range k.ParallelLoops() {
		if _, ok := sh.Slots[l.Var]; !ok {
			sh.Slots[l.Var] = len(sh.Slots)
		}
	}
	var err error
	if sh.iters, err = sh.compile("iteration space", k.IterSpace()); err != nil {
		return nil, err
	}
	if sh.bytes, err = sh.compile("transfer bytes", k.TransferBytes()); err != nil {
		return nil, err
	}
	if sh.Augment, sh.AugBound, err = ir.CompileAugment(k, sh.Slots, sh.Bound); err != nil {
		return nil, err
	}
	if sh.Count, err = ir.CompileCount(k, sh.Slots, sh.AugBound); err != nil {
		return nil, err
	}
	sh.sites = make([]compiledSite, len(r.Sites))
	for i := range r.Sites {
		s := &r.Sites[i]
		cs := &sh.sites[i]
		var innerSeq *ir.Loop
		cs.fixed, innerSeq = s.fixed()
		if s.ThreadAffine {
			if cs.thread, err = sh.compile(fmt.Sprintf("site %d thread stride", i), s.ThreadStride); err != nil {
				return nil, err
			}
		}
		if cs.fixed.OuterOK = s.OuterAffine && ir.Resolvable(s.OuterStride, sh.Bound); cs.fixed.OuterOK {
			if cs.outer, err = symbolic.Compile(s.OuterStride, sh.Slots); err != nil {
				return nil, err
			}
		}
		if cs.fixed.InnerOK = s.InnerAffine && ir.Resolvable(s.InnerStride, sh.Bound); cs.fixed.InnerOK {
			if cs.inner, err = symbolic.Compile(s.InnerStride, sh.Slots); err != nil {
				return nil, err
			}
		}
		if cs.fixed.SeqDepth >= 2 {
			if cs.seqTrip, err = ir.CompileTrip(innerSeq, sh.Slots, sh.AugBound); err != nil {
				return nil, err
			}
		}
	}
	return sh, nil
}

// compile compiles an expression every launch must be able to evaluate.
func (sh *Shape) compile(what string, e symbolic.Expr) (symbolic.Compiled, error) {
	if !ir.Resolvable(e, sh.Bound) {
		return symbolic.Compiled{}, fmt.Errorf("ipda: compile: %s %s not resolvable from parameters", what, e)
	}
	return symbolic.Compile(e, sh.Slots)
}

// Point is a kernel launch resolved at one launch point — everything the
// cost models read about it — and the scratch the slot resolution needs: a
// caller keeps one per goroutine (NewPoint), writes the launch's parameter
// values into Vals and calls Resolve. ResolveBindings fills one from a
// bindings map instead, and leaves the slot vectors nil.
type Point struct {
	// Vals is the raw slot vector, Mid its midpoint-augmented copy (the
	// hybrid counting bindings), Scratch a third the CPU model's
	// edge-of-iteration-space probes overwrite.
	Vals, Mid, Scratch []int64

	BranchProb    float64
	Iters         int64      // the whole iteration space
	TransferBytes int64      // every In array plus every Out array
	Load          ir.Loadout // of one work item at the midpoint
	Vectorizable  bool       // Result.Vectorizable
	// Analyzed is false for a launch resolved without a stride analysis
	// (the map form's nil-IPDA ablation): no Sites, never Vectorizable.
	Analyzed bool
	Sites    []SitePoint

	warps []WarpPoint // one per geometry resolved
}

// SitePoint is one access site at a launch point: what the analysis fixes
// about the site, then its strides, in elements, and trip count there.
type SitePoint struct {
	Weight   float64
	ElemSize int64
	Kind     ir.AccessKind
	HasInner bool

	ThreadAffine, InnerAffine bool

	// SeqDepth counts the sequential loops around the access; at two or
	// more, SeqTrip is the innermost one's trip count at the midpoint
	// (DefaultTrip when it does not resolve) — the GPU model's
	// re-walked-footprint refinement.
	SeqDepth int
	SeqTrip  int64

	// Thread is meaningful when the site is ThreadAffine; InnerOK and
	// OuterOK are false where the stride is not affine or its evaluation
	// fails (which the bound-name set decides, not the values).
	Thread, Inner, Outer int64
	InnerOK, OuterOK     bool
}

// fixed is the part of the site's SitePoint no launch changes, and the
// innermost of the sequential loops around the access (nil without one).
func (s *Site) fixed() (sp SitePoint, innerSeq *ir.Loop) {
	sp = SitePoint{
		Weight:       s.Access.Weight,
		ElemSize:     s.Access.Elem.Size(),
		Kind:         s.Access.Kind,
		HasInner:     s.HasInner,
		ThreadAffine: s.ThreadAffine,
		InnerAffine:  s.InnerAffine,
	}
	for _, l := range s.Access.Loops {
		if !l.Parallel {
			sp.SeqDepth++
			innerSeq = l
		}
	}
	return sp, innerSeq
}

// WarpPoint is a launch point's coalescing behaviour under one warp
// geometry: Site.ResolveGPU per site, and
// Result.GPUCoalescing(...).CoalescedFraction.
type WarpPoint struct {
	Geom          WarpGeom
	CoalescedFrac float64
	Access        []WarpAccess
}

// NewPoint returns a Point sized for the shape.
func (sh *Shape) NewPoint() *Point {
	n := len(sh.Slots)
	vecs := make([]int64, 3*n)
	p := &Point{Analyzed: true, Sites: make([]SitePoint, len(sh.sites)),
		Vals: vecs[:n:n], Mid: vecs[n : 2*n : 2*n], Scratch: vecs[2*n:]}
	for i := range sh.sites {
		p.Sites[i] = sh.sites[i].fixed
	}
	return p
}

// Resolve evaluates the shape at the launch whose parameter values are in
// p.Vals. No validation of the values is needed: CompileShape proved every
// expression resolvable from the parameters.
func (sh *Shape) Resolve(p *Point, branchProb float64) {
	copy(p.Mid, p.Vals)
	sh.Augment.Midpoint(p.Mid)
	p.BranchProb = branchProb
	p.Iters = sh.iters.Eval(p.Vals)
	p.TransferBytes = sh.bytes.Eval(p.Vals)
	p.Load = sh.Count.Eval(p.Mid, branchProb, sh.DefaultTrip)
	p.warps = p.warps[:0]

	// Result.Vectorizable: every access inside a sequential loop has an
	// inner stride of 0 or 1; a body without one vectorizes along the
	// thread dimension under the same rule.
	anyInner, innerVec, threadVec := false, true, true
	for i := range sh.sites {
		s, sp := &sh.sites[i], &p.Sites[i]
		if sp.ThreadAffine {
			sp.Thread = s.thread.Eval(p.Vals)
		}
		if sp.InnerOK {
			sp.Inner = s.inner.Eval(p.Vals)
		}
		if sp.OuterOK {
			sp.Outer = s.outer.Eval(p.Vals)
		}
		if sp.SeqTrip = sh.DefaultTrip; sp.SeqDepth >= 2 {
			if t, ok := s.seqTrip.Eval(p.Mid); ok {
				sp.SeqTrip = t
			}
		}
		if sp.HasInner {
			anyInner = true
			innerVec = innerVec && sp.InnerOK && (sp.Inner == 0 || sp.Inner == 1)
		}
		threadVec = threadVec && sp.ThreadAffine && (sp.Thread == 0 || sp.Thread == 1)
	}
	p.Vectorizable = innerVec
	if !anyInner {
		p.Vectorizable = threadVec
	}
}

// Warp returns the point's coalescing behaviour under g, classifying the
// sites the first time a geometry is asked for: targets that share a
// geometry — every shipped GPU is {32, 128 B} — share the walk.
func (p *Point) Warp(g WarpGeom) *WarpPoint {
	for i := range p.warps {
		if p.warps[i].Geom == g {
			return &p.warps[i]
		}
	}
	if len(p.warps) < cap(p.warps) {
		p.warps = p.warps[:len(p.warps)+1] // keeps the recycled Access
	} else {
		p.warps = append(p.warps, WarpPoint{})
	}
	wp := &p.warps[len(p.warps)-1]
	wp.Geom, wp.Access = g, wp.Access[:0]
	var coal, total float64
	for i := range p.Sites {
		s := &p.Sites[i]
		wa := WarpAccess{Class: NonUniform, Transactions: g.WarpSize}
		if s.ThreadAffine {
			wa = ClassifyStride(s.Thread*s.ElemSize, s.ElemSize, g)
		}
		wp.Access = append(wp.Access, wa)
		total += s.Weight
		switch wa.Class {
		case Uniform, Coalesced:
			coal += s.Weight
		}
	}
	wp.CoalescedFrac = 1
	if total != 0 {
		wp.CoalescedFrac = coal / total
	}
	return wp
}

// FalseSharingRisk is Result.FalseSharingRisk at the point.
func (p *Point) FalseSharingRisk(chunkIters, lineBytes int64) float64 {
	var stores, risky float64
	for i := range p.Sites {
		s := &p.Sites[i]
		if s.Kind != ir.AccStore {
			continue
		}
		stores += s.Weight
		if !s.OuterOK {
			continue
		}
		dist := s.Outer * chunkIters * s.ElemSize
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

package ipda

import (
	"errors"
	"fmt"

	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// ErrEmptySpace is what Span wraps for a launch whose bound values leave
// the target no iteration to run: the caller's input is out of the range
// the models price, not a fault of theirs.
var ErrEmptySpace = errors.New("empty iteration space")

// Span is the iteration count of a target that runs the leading fraction
// of the launch's iteration space (outside (0,1): all of it; never less
// than one iteration of a space that has any).
func (p *Point) Span(fraction float64) (int64, error) {
	iters := p.Iters
	if fraction > 0 && fraction < 1 {
		iters = int64(float64(iters)*fraction + 0.5)
		if iters < 1 {
			iters = 1
		}
	}
	if iters <= 0 {
		return 0, fmt.Errorf("%w (%d)", ErrEmptySpace, iters)
	}
	return iters, nil
}

// ResolveBindings is the map-form resolver: the Point of the launch of k
// that binds b, filled by the interpreted analysis — symbolic evaluation
// under the map, ir.Count under opt (whose Bindings carry the midpoint
// augmentation), and r's own GPUCoalescing, ResolveGPU and Vectorizable —
// and by no slot program, so it stays the independent reference the slot
// form's Resolve is tested against. r may be nil: the launch is then
// resolved without a stride analysis. Each geometry in geoms is classified
// up front, so Point.Warp answers it from r's classification.
func ResolveBindings(k *ir.Kernel, r *Result, b symbolic.Bindings, opt ir.CountOptions, geoms ...WarpGeom) (*Point, error) {
	iters, err := k.IterSpace().Eval(b)
	if err != nil {
		return nil, fmt.Errorf("iteration space: %w", err)
	}
	p := &Point{BranchProb: opt.BranchProb, Iters: iters, Load: ir.Count(k, opt)}
	if r == nil {
		return p, nil
	}
	p.Analyzed, p.Vectorizable = true, r.Vectorizable(b)
	p.Sites = make([]SitePoint, len(r.Sites))
	for i := range r.Sites {
		s, sp := &r.Sites[i], &p.Sites[i]
		var innerSeq *ir.Loop
		*sp, innerSeq = s.fixed()
		if s.ThreadAffine {
			if sp.Thread, err = s.ThreadStride.Eval(b); err != nil {
				return nil, err
			}
		}
		if s.InnerAffine {
			if st, err := s.InnerStride.Eval(b); err == nil {
				sp.Inner, sp.InnerOK = st, true
			}
		}
		if s.OuterAffine {
			if st, err := s.OuterStride.Eval(b); err == nil {
				sp.Outer, sp.OuterOK = st, true
			}
		}
		if sp.SeqTrip = opt.DefaultTrip; sp.SeqDepth >= 2 {
			if t, err := innerSeq.TripEval(opt.Bindings); err == nil {
				sp.SeqTrip = t
			}
		}
	}
	for _, g := range geoms {
		sum, err := r.GPUCoalescing(b, g)
		if err != nil {
			return nil, err
		}
		wp := WarpPoint{Geom: g, CoalescedFrac: sum.CoalescedFraction(), Access: make([]WarpAccess, len(r.Sites))}
		for i := range r.Sites {
			if wp.Access[i], err = r.Sites[i].ResolveGPU(b, g); err != nil {
				return nil, err
			}
		}
		p.warps = append(p.warps, wp)
	}
	return p, nil
}

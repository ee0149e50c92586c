package ir

import (
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// Loadout is the "instruction loadout" static feature vector of a kernel:
// expected dynamic operation counts per work item (one iteration of the
// collapsed parallel iteration space). Counts are expectations (float64)
// because conditional code contributes fractionally under the branch
// probability heuristic.
type Loadout struct {
	FPAdd     float64 // floating-point adds/subs/compares
	FPMul     float64
	FPDiv     float64
	FPSpecial float64 // sqrt, exp, abs
	IntOps    float64 // address and loop-control integer arithmetic
	Loads     float64 // array element loads
	Stores    float64 // array element stores
	Branches  float64 // conditional branches (loop back-edges + ifs)
}

// FP returns the total floating-point operation count.
func (l Loadout) FP() float64 { return l.FPAdd + l.FPMul + l.FPDiv + l.FPSpecial }

// Mem returns the total memory operation count.
func (l Loadout) Mem() float64 { return l.Loads + l.Stores }

// Compute returns all non-memory dynamic instructions.
func (l Loadout) Compute() float64 { return l.FP() + l.IntOps + l.Branches }

// Total returns all dynamic instructions.
func (l Loadout) Total() float64 { return l.Compute() + l.Mem() }

// add accumulates o (already weighted) into l.
func (l *Loadout) add(o Loadout) {
	l.FPAdd += o.FPAdd
	l.FPMul += o.FPMul
	l.FPDiv += o.FPDiv
	l.FPSpecial += o.FPSpecial
	l.IntOps += o.IntOps
	l.Loads += o.Loads
	l.Stores += o.Stores
	l.Branches += o.Branches
}

// CountOptions control the static-analysis heuristics of the paper: inner
// loops with unresolvable trip counts are assumed to run DefaultTrip
// iterations, and conditionals are taken with probability BranchProb.
// Bindings, when non-nil, resolve symbolic trip counts exactly — this is
// the "hybrid" part: the same analysis becomes precise once the runtime
// knows the parameter values.
type CountOptions struct {
	DefaultTrip int64
	BranchProb  float64
	Bindings    symbolic.Bindings
}

// DefaultCountOptions are the paper's static assumptions: 128 iterations
// for unknown loops and a 50% branch probability.
func DefaultCountOptions() CountOptions {
	return CountOptions{DefaultTrip: 128, BranchProb: 0.5}
}

// ForLaunch completes the options a caller left open for counting the
// launch of k that binds b: the static defaults where DefaultTrip is unset,
// and hybrid counting where no bindings are given — the runtime values plus
// midpoints for the parallel indices, so triangular inner loops resolve to
// their mean rather than the DefaultTrip fallback.
func (o CountOptions) ForLaunch(k *Kernel, b symbolic.Bindings) CountOptions {
	if o.DefaultTrip == 0 {
		o = DefaultCountOptions()
	}
	if o.Bindings == nil {
		o.Bindings = MidpointBindings(k, b)
	}
	return o
}

// FractionBindings augments runtime parameter bindings with parallel loop
// variables pinned at the given fraction of their range (0 = lower bound,
// 0.5 = midpoint, 1 = upper bound). It lets the cost model evaluate the
// per-iteration work of a *specific region* of the iteration space — the
// first or last static chunk of a triangular nest does very different
// amounts of work, and Liao's model takes the maximum over threads.
func FractionBindings(k *Kernel, b symbolic.Bindings, frac float64) symbolic.Bindings {
	out := make(symbolic.Bindings, len(b)+2)
	for s, v := range b {
		out[s] = v
	}
	for _, l := range k.ParallelLoops() {
		lo, err1 := l.Lower.Eval(out)
		hi, err2 := l.Upper.Eval(out)
		if err1 != nil || err2 != nil {
			continue
		}
		v := lo + int64(float64(hi-lo)*frac)
		if v >= hi {
			v = hi - 1
		}
		if v < lo {
			v = lo
		}
		out[l.Var] = v
	}
	return out
}

// MidpointBindings augments runtime parameter bindings with midpoint
// values for the kernel's parallel loop variables, so that inner-loop
// bounds that depend on a parallel index (triangular nests) resolve to
// their average trip count. This implements the paper's "compiler
// transformation that supplies the OpenMP runtime with ... loop trip
// counts": rectangular inner loops resolve exactly; triangular ones to
// their mean over the iteration space.
func MidpointBindings(k *Kernel, b symbolic.Bindings) symbolic.Bindings {
	out := make(symbolic.Bindings, len(b)+2)
	for s, v := range b {
		out[s] = v
	}
	for _, l := range k.ParallelLoops() {
		lo, err1 := l.Lower.Eval(out)
		hi, err2 := l.Upper.Eval(out)
		if err1 != nil || err2 != nil {
			continue
		}
		out[l.Var] = (lo + hi) / 2
	}
	return out
}

// Count computes the instruction loadout of one work item of the kernel.
func Count(k *Kernel, opt CountOptions) Loadout {
	c := counter{k: k, opt: opt}
	var l Loadout
	c.stmts(k.InnerBody(), 1, &l)
	return l
}

type counter struct {
	k   *Kernel
	opt CountOptions
}

func (c *counter) trip(l *Loop) float64 {
	if c.opt.Bindings != nil {
		if t, err := l.TripEval(c.opt.Bindings); err == nil {
			return float64(t)
		}
	}
	if t, ok := l.Trip().IsConst(); ok {
		return float64(t)
	}
	return float64(c.opt.DefaultTrip)
}

func (c *counter) stmts(ss []Stmt, w float64, out *Loadout) {
	for _, s := range ss {
		c.stmt(s, w, out)
	}
}

func (c *counter) stmt(s Stmt, w float64, out *Loadout) {
	switch s := s.(type) {
	case *Loop:
		t := c.trip(s)
		// Loop control: increment + compare (+ back-edge branch) per
		// iteration.
		out.IntOps += w * t * 2
		out.Branches += w * t
		c.stmts(s.Body, w*t, out)
	case *Assign:
		c.ref(s.LHS, w, out)
		out.Stores += w
		if s.Accum {
			out.Loads += w
			out.FPAdd += w
		}
		c.expr(s.RHS, w, out)
	case *ScalarAssign:
		if s.Accum {
			out.FPAdd += w
		}
		c.expr(s.RHS, w, out)
	case *If:
		out.Branches += w
		out.FPAdd += w // the comparison itself
		c.expr(s.Cond.L, w, out)
		c.expr(s.Cond.R, w, out)
		p := c.opt.BranchProb
		c.stmts(s.Then, w*p, out)
		c.stmts(s.Else, w*(1-p), out)
	}
}

func (c *counter) ref(r Ref, w float64, out *Loadout) {
	a := c.k.Array(r.Array)
	if a == nil {
		return
	}
	adds, muls := a.LinearIndex(r.Index).OpCount()
	out.IntOps += w * float64(adds+muls)
}

func (c *counter) expr(e Expr, w float64, out *Loadout) {
	switch e := e.(type) {
	case ConstF, Scalar:
		// Register operands: free.
	case Load:
		c.ref(e.Ref, w, out)
		out.Loads += w
	case IndexVal:
		adds, muls := e.E.OpCount()
		out.IntOps += w * float64(adds+muls+1) // +1 int→fp convert
	case Bin:
		switch e.Op {
		case Add, Sub:
			out.FPAdd += w
		case Mul:
			out.FPMul += w
		case Div:
			out.FPDiv += w
		}
		c.expr(e.L, w, out)
		c.expr(e.R, w, out)
	case Un:
		switch e.Op {
		case Neg, Abs:
			out.FPAdd += w
		case Sqrt, Exp:
			out.FPSpecial += w
		}
		c.expr(e.X, w, out)
	}
}

// AccessKind distinguishes loads from stores at an access site.
type AccessKind uint8

// Access kinds.
const (
	AccLoad AccessKind = iota
	AccStore
)

// String returns "load" or "store".
func (k AccessKind) String() string {
	if k == AccStore {
		return "store"
	}
	return "load"
}

// Access is one static memory access site of a kernel, with its enclosing
// loop context — the unit of IPDA analysis.
type Access struct {
	Ref    Ref
	Kind   AccessKind
	Elem   ElemType
	Loops  []*Loop // enclosing loops, outermost first (incl. parallel ones)
	Weight float64 // expected executions per work item
}

// Accesses enumerates every static memory access site of the kernel with
// its expected per-work-item execution count under opt's heuristics.
func (k *Kernel) Accesses(opt CountOptions) []Access {
	c := counter{k: k, opt: opt}
	w := walker{c: &c, k: k}
	w.loops = append(w.loops, k.ParallelLoops()...)
	w.stmts(k.InnerBody(), 1)
	return w.out
}

type walker struct {
	c     *counter
	k     *Kernel
	loops []*Loop
	out   []Access
}

func (w *walker) emit(r Ref, kind AccessKind, weight float64) {
	a := w.k.Array(r.Array)
	if a == nil {
		return
	}
	loops := make([]*Loop, len(w.loops))
	copy(loops, w.loops)
	w.out = append(w.out, Access{
		Ref: r, Kind: kind, Elem: a.Elem, Loops: loops, Weight: weight,
	})
}

func (w *walker) stmts(ss []Stmt, weight float64) {
	for _, s := range ss {
		w.stmt(s, weight)
	}
}

func (w *walker) stmt(s Stmt, weight float64) {
	switch s := s.(type) {
	case *Loop:
		t := w.c.trip(s)
		w.loops = append(w.loops, s)
		w.stmts(s.Body, weight*t)
		w.loops = w.loops[:len(w.loops)-1]
	case *Assign:
		w.expr(s.RHS, weight)
		if s.Accum {
			w.emit(s.LHS, AccLoad, weight)
		}
		w.emit(s.LHS, AccStore, weight)
	case *ScalarAssign:
		w.expr(s.RHS, weight)
	case *If:
		w.expr(s.Cond.L, weight)
		w.expr(s.Cond.R, weight)
		p := w.c.opt.BranchProb
		w.stmts(s.Then, weight*p)
		w.stmts(s.Else, weight*(1-p))
	}
}

func (w *walker) expr(e Expr, weight float64) {
	switch e := e.(type) {
	case Load:
		w.emit(e.Ref, AccLoad, weight)
	case Bin:
		w.expr(e.L, weight)
		w.expr(e.R, weight)
	case Un:
		w.expr(e.X, weight)
	}
}

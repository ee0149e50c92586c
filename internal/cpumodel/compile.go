package cpumodel

import (
	"fmt"

	"github.com/hybridsel/hybridsel/internal/ipda"
	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/mca"
)

// CompileInput gathers what a region compiles its CPU model against: the
// kernel, the machine, and the region's Shape, which the GPU model and
// every other target share.
type CompileInput struct {
	Kernel  *ir.Kernel
	CPU     *machine.CPU
	Threads int

	// Estimator defaults to MCAEstimator. Only MCAEstimator and FixedCPI
	// compile; any other implementation returns an error.
	Estimator CPIEstimator

	Shape *ipda.Shape

	// CPI, when set, is the MCAEstimator compiled for this kernel and Shape
	// on a CPU of the same pipeline (mca.SamePipeline), shared, not redone.
	CPI *mca.CompiledCPI
}

// Compiled is the model specialized to one (kernel, CPU, thread count)
// region: the MCA pipeline simulation happened at compile time and the
// kernel analysis is read off the launch's resolved ipda.Point, so each
// call is the model's arithmetic — the same price Predict runs — over the
// machine's parameters and the slot programs' work-item costs.
type Compiled struct{ m model }

// slotVector is the augmented slot vector a slot estimator evaluates for
// workItemCost's edge: the point's midpoint vector, or its scratch vector
// with the parallel indices pinned at the fraction.
func slotVector(sh *ipda.Shape, pt *ipda.Point, edge float64) []int64 {
	if edge == 0 {
		return pt.Mid
	}
	copy(pt.Scratch, pt.Vals)
	sh.Augment.Fraction(pt.Scratch, edge)
	return pt.Scratch
}

// mcaSlotCost is MCAEstimator specialized to the slot layout.
type mcaSlotCost struct {
	c  *mca.CompiledCPI
	sh *ipda.Shape
}

func (m mcaSlotCost) cycles(pt *ipda.Point, edge float64) (float64, error) {
	return m.c.CyclesPerWorkItem(slotVector(m.sh, pt, edge), pt.BranchProb, m.sh.DefaultTrip), nil
}

// fixedSlotCost is FixedCPI specialized to the slot layout.
type fixedSlotCost struct {
	cpi float64
	sh  *ipda.Shape
}

func (f fixedSlotCost) cycles(pt *ipda.Point, edge float64) (float64, error) {
	l := f.sh.Count.Eval(slotVector(f.sh, pt, edge), pt.BranchProb, f.sh.DefaultTrip)
	return l.Total() * f.cpi, nil
}

// Compile specializes the Liao model to the region. It fails — and with
// it the region's registration — when the estimator is not a known
// compilable implementation (CompileShape already rejected a region whose
// iteration space the parameters do not resolve); this mirrors exactly the
// configurations where the interpreted Predict would error or diverge.
func Compile(in CompileInput) (*Compiled, error) {
	if in.Kernel == nil || in.CPU == nil || in.Shape == nil {
		return nil, fmt.Errorf("cpumodel: compile: nil kernel, CPU or shape")
	}
	est := in.Estimator
	if est == nil {
		est = MCAEstimator{}
	}
	var cost workItemCost
	switch e := est.(type) {
	case MCAEstimator:
		cc := in.CPI
		if cc == nil {
			var err error
			if cc, err = mca.CompileCPI(in.Kernel, in.CPU, in.Shape.Slots, in.Shape.AugBound); err != nil {
				return nil, err
			}
		}
		cost = mcaSlotCost{cc, in.Shape}
	case FixedCPI:
		cost = fixedSlotCost{e.CPI, in.Shape}
	default:
		return nil, fmt.Errorf("cpumodel: compile: unsupported estimator %s", est.Name())
	}
	c := &Compiled{newModel(in.CPU, in.Threads, cost)}
	c.m.edgesFlat = !tripsVary(in.Kernel)
	return c, nil
}

// tripsVary reports whether some loop of a work item has a bound naming a
// parallel loop variable. The estimators read a slot vector only through
// those bounds, so where none does, the cost at any point of the iteration
// space is, bit for bit, the cost at its midpoint.
func tripsVary(k *ir.Kernel) bool {
	var walk func(ss []ir.Stmt) bool
	walk = func(ss []ir.Stmt) bool {
		for _, s := range ss {
			switch s := s.(type) {
			case *ir.Loop:
				for _, p := range k.ParallelLoops() {
					if s.Lower.Uses(p.Var) || s.Upper.Uses(p.Var) {
						return true
					}
				}
				if walk(s.Body) {
					return true
				}
			case *ir.If:
				if walk(s.Then) || walk(s.Else) {
					return true
				}
			}
		}
		return false
	}
	return walk(k.InnerBody())
}

// CPI is the MCA estimate the model prices work items with; nil under FixedCPI.
func (c *Compiled) CPI() *mca.CompiledCPI {
	m, _ := c.m.cost.(mcaSlotCost)
	return m.c
}

// Seconds is the predicted time of the region's launch at pt with the
// host running iterFraction of the iteration space (0: all of it) — what a
// decision needs of Predict.
func (c *Compiled) Seconds(pt *ipda.Point, iterFraction float64) (float64, error) {
	var p Prediction
	err := c.m.price(pt, iterFraction, &p)
	return p.Seconds, err
}

// Predict is Seconds with the model's whole additive breakdown, the form
// the equivalence tests compare field by field against the interpreted
// Predict.
func (c *Compiled) Predict(pt *ipda.Point, iterFraction float64) (Prediction, error) {
	var p Prediction
	err := c.m.price(pt, iterFraction, &p)
	return p, err
}

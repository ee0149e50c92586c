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
}

// Compiled is Predict specialized to one (kernel, CPU, thread count)
// region: the MCA pipeline simulation happened at compile time and the
// kernel analysis is read off the launch's resolved ipda.Point, so each
// call is the model's own arithmetic over the machine's parameters —
// bit-for-bit identical to the interpreted Predict because it replays the
// same float operations in the same order.
type Compiled struct {
	cpu        *machine.CPU
	threads    int
	shape      *ipda.Shape
	est        compiledEstimator
	streamCost float64
	// edgesVary reports that a work item's cost can differ across the
	// iteration space, so the static schedule's slowest thread has to be
	// looked for at its edges.
	edgesVary bool
}

// compiledEstimator is a CPIEstimator specialized to the slot layout.
type compiledEstimator interface {
	cycles(vals []int64, branchProb float64, defaultTrip int64) float64
}

type mcaEstCompiled struct{ c *mca.CompiledCPI }

func (m mcaEstCompiled) cycles(vals []int64, branchProb float64, defaultTrip int64) float64 {
	return m.c.CyclesPerWorkItem(vals, branchProb, defaultTrip)
}

type fixedEstCompiled struct {
	prog *ir.CountProgram
	cpi  float64
}

func (f fixedEstCompiled) cycles(vals []int64, branchProb float64, defaultTrip int64) float64 {
	l := f.prog.Eval(vals, branchProb, defaultTrip)
	return l.Total() * f.cpi
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
	c := &Compiled{cpu: in.CPU, shape: in.Shape, threads: in.Threads, edgesVary: tripsVary(in.Kernel)}
	if c.threads <= 0 || c.threads > in.CPU.Threads() {
		c.threads = in.CPU.Threads()
	}

	est := in.Estimator
	if est == nil {
		est = MCAEstimator{}
	}
	switch e := est.(type) {
	case MCAEstimator:
		cc, err := mca.CompileCPI(in.Kernel, in.CPU, in.Shape.Slots, in.Shape.AugBound)
		if err != nil {
			return nil, err
		}
		c.est = mcaEstCompiled{cc}
	case FixedCPI:
		c.est = fixedEstCompiled{prog: in.Shape.Count, cpi: e.CPI}
	default:
		return nil, fmt.Errorf("cpumodel: compile: unsupported estimator %s", est.Name())
	}

	// Static subterm of the Cache_c model: the prefetched-stream refill
	// cost depends only on the machine.
	c.streamCost = float64(in.CPU.L1.LatencyCycle) +
		float64(in.CPU.L2.LatencyCycle)*8/float64(in.CPU.L1.LineBytes)
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

// Seconds is the predicted time of the region's launch at pt with the
// host running iterFraction of the iteration space (0: all of it) — what a
// decision needs of Predict.
func (c *Compiled) Seconds(pt *ipda.Point, iterFraction float64) (float64, error) {
	var p Prediction
	err := c.predict(pt, iterFraction, &p)
	return p.Seconds, err
}

// Predict is Seconds with the model's whole additive breakdown, the form
// the equivalence tests compare field by field against the interpreted
// Predict.
func (c *Compiled) Predict(pt *ipda.Point, iterFraction float64) (Prediction, error) {
	var p Prediction
	err := c.predict(pt, iterFraction, &p)
	return p, err
}

// predict replays the interpreted Predict over the launch's resolved
// point into *p (zero on entry). It models the default static schedule
// (DynamicChunk == 0), which is the only schedule the offload runtime
// requests.
func (c *Compiled) predict(pt *ipda.Point, iterFraction float64, p *Prediction) error {
	iters := pt.Iters
	if f := iterFraction; f > 0 && f < 1 {
		iters = int64(float64(iters)*f + 0.5)
		if iters < 1 {
			iters = 1
		}
	}
	if iters <= 0 {
		return fmt.Errorf("cpumodel: empty iteration space (%d)", iters)
	}
	threads := c.threads
	if int64(threads) > iters {
		threads = int(iters)
	}
	p.Threads = threads

	defaultTrip := c.shape.DefaultTrip
	cpi := c.est.cycles(pt.Mid, pt.BranchProb, defaultTrip)

	// Edge-of-iteration-space probes for the static-schedule maximum:
	// skipped where they could only find the midpoint's cost again.
	if threads > 1 && c.edgesVary {
		for _, frac := range [2]float64{1 / (2 * float64(threads)),
			1 - 1/(2*float64(threads))} {
			copy(pt.Scratch, pt.Vals)
			c.shape.Augment.Fraction(pt.Scratch, frac)
			if edgeCPI := c.est.cycles(pt.Scratch, pt.BranchProb, defaultTrip); edgeCPI > cpi {
				cpi = edgeCPI
			}
		}
	}

	cm := c.cpu
	if pt.Vectorizable {
		vf := 1 + float64(cm.VectorLanesF64-1)*cm.VecEfficiency
		cpi /= vf
		p.Vectorized = true
	}
	p.CyclesPerIter = cpi

	chunk := (iters + int64(threads) - 1) / int64(threads)
	p.ChunkIters = chunk

	eff := float64(threads)
	if threads > cm.Cores {
		cc := float64(cm.Cores)
		eff = cc * (1 + cm.SMTYield*(float64(threads)/cc-1))
	}
	p.EffParallel = eff
	slowdown := float64(threads) / eff

	p.Fork, p.Schedule, p.Join = cm.OverheadCycles(threads)
	p.ChunkWork = cpi * float64(chunk) * slowdown
	p.LoopOverhead = float64(cm.OMP.LoopOverheadIter) * float64(chunk)

	var memCycles float64
	for i := range c.shape.Sites {
		s, sp := &c.shape.Sites[i], &pt.Sites[i]
		// Locality axis: the innermost sequential loop when there is one,
		// else consecutive work items of the same thread.
		affine, st, strideOK := s.ThreadAffine, sp.Thread, true
		if s.HasInner {
			affine, st, strideOK = s.InnerAffine, sp.Inner, sp.InnerOK
		}
		lat := c.streamCost
		if !affine {
			lat = float64(cm.MemLatency)
		} else if strideOK {
			switch {
			case st == 0:
				lat = float64(cm.L1.LatencyCycle)
			case st == 1 || st == -1:
				lat = c.streamCost
			default:
				lat = float64(cm.MemLatency)
				if s.ThreadAffine && sp.Thread >= -1 && sp.Thread <= 1 {
					lat = float64(cm.L2.LatencyCycle)
				}
				if abs64(st*s.ElemSize) >= cm.PageBytes {
					lat += float64(cm.TLBMissPenalty)
				}
			}
		}
		memCycles += s.Weight * lat
	}
	p.Cache = memCycles * float64(chunk)

	if risk := pt.FalseSharingRisk(chunk, cm.L1.LineBytes); risk > 0 {
		storesPerChunk := pt.Load.Stores * float64(chunk)
		p.FalseSharing = risk * storesPerChunk * float64(cm.L3.LatencyCycle)
	}

	p.Cycles = p.Fork + p.Schedule + p.ChunkWork + p.LoopOverhead +
		p.Cache + p.Join + p.FalseSharing
	p.Seconds = p.Cycles / (cm.FreqGHz * 1e9)
	return nil
}

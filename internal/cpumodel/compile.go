package cpumodel

import (
	"fmt"

	"github.com/hybridsel/hybridsel/internal/ipda"
	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/mca"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// CompileInput gathers the kernel, machine and pre-compiled analyses a
// region compiles its CPU model against. The slot layout, bound sets,
// augment, count program and IPDA result are shared with the GPU model,
// so the caller (the offload runtime) builds them once per region.
type CompileInput struct {
	Kernel  *ir.Kernel
	CPU     *machine.CPU
	Threads int

	// Estimator defaults to MCAEstimator. Only MCAEstimator and FixedCPI
	// compile; any other implementation returns an error.
	Estimator CPIEstimator

	// IPDA is the compiled stride analysis (nil models the interpreted
	// nil-IPDA fallback paths).
	IPDA *ipda.CompiledResult

	// Count is the compiled instruction counter and Augment the compiled
	// midpoint/fraction binding augmentation, both over Slots.
	Count   *ir.CountProgram
	Augment *ir.Augment

	// Slots is the slot layout; Bound is the raw (parameter) name set and
	// AugBound the augmented set the midpoint/fraction vectors bind.
	Slots    map[string]int
	Bound    map[string]bool
	AugBound map[string]bool

	// DefaultTrip is the CountOptions.DefaultTrip the compiled model
	// replicates (0 selects ir.DefaultCountOptions().DefaultTrip).
	DefaultTrip int64
}

// Compiled is Predict specialized to one (kernel, CPU, thread count)
// region: the MCA pipeline simulation, stride compilation and expression
// walking all happened at compile time, so each Predict call is slot-
// vector polynomial evaluation plus the model's own arithmetic —
// bit-for-bit identical to the interpreted Predict because it replays
// the same float operations in the same order.
type Compiled struct {
	cpu         *machine.CPU
	threads     int
	ipda        *ipda.CompiledResult
	count       *ir.CountProgram
	aug         *ir.Augment
	iterSpace   symbolic.Compiled
	est         compiledEstimator
	defaultTrip int64
	streamCost  float64
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
// it the region's registration — when the iteration space is not
// resolvable from the raw parameters or the estimator is not a known
// compilable implementation; this mirrors exactly the configurations
// where the interpreted Predict would error or diverge.
func Compile(in CompileInput) (*Compiled, error) {
	if in.Kernel == nil || in.CPU == nil {
		return nil, fmt.Errorf("cpumodel: nil kernel or CPU")
	}
	if in.Count == nil || in.Augment == nil {
		return nil, fmt.Errorf("cpumodel: compile: missing count program or augment")
	}
	c := &Compiled{
		cpu:         in.CPU,
		ipda:        in.IPDA,
		count:       in.Count,
		aug:         in.Augment,
		defaultTrip: in.DefaultTrip,
	}
	if c.defaultTrip == 0 {
		c.defaultTrip = int64(ir.DefaultCountOptions().DefaultTrip)
	}
	c.threads = in.Threads
	if c.threads <= 0 || c.threads > in.CPU.Threads() {
		c.threads = in.CPU.Threads()
	}
	space := in.Kernel.IterSpace()
	if !ir.Resolvable(space, in.Bound) {
		return nil, fmt.Errorf("cpumodel: compile: iteration space %s not resolvable from parameters", space)
	}
	cs, err := symbolic.Compile(space, in.Slots)
	if err != nil {
		return nil, err
	}
	c.iterSpace = cs

	est := in.Estimator
	if est == nil {
		est = MCAEstimator{}
	}
	switch e := est.(type) {
	case MCAEstimator:
		cc, err := mca.CompileCPI(in.Kernel, in.CPU, in.Slots, in.AugBound)
		if err != nil {
			return nil, err
		}
		c.est = mcaEstCompiled{cc}
	case FixedCPI:
		c.est = fixedEstCompiled{prog: in.Count, cpi: e.CPI}
	default:
		return nil, fmt.Errorf("cpumodel: compile: unsupported estimator %s", est.Name())
	}

	// Static subterm of the Cache_c model: the prefetched-stream refill
	// cost depends only on the machine.
	c.streamCost = float64(in.CPU.L1.LatencyCycle) +
		float64(in.CPU.L2.LatencyCycle)*8/float64(in.CPU.L1.LineBytes)
	return c, nil
}

// Predict replays the interpreted Predict over slot vectors. vals is the
// raw parameter vector, mid the midpoint-augmented copy, and scratch a
// caller-owned buffer of the same length the edge-CPI probes overwrite
// (so the hot path allocates nothing). It models the default static
// schedule (DynamicChunk == 0), which is the only schedule the offload
// runtime requests.
func (c *Compiled) Predict(vals, mid, scratch []int64, branchProb, iterFraction float64) (Prediction, error) {
	iters := c.iterSpace.Eval(vals)
	if f := iterFraction; f > 0 && f < 1 {
		iters = int64(float64(iters)*f + 0.5)
		if iters < 1 {
			iters = 1
		}
	}
	if iters <= 0 {
		return Prediction{}, fmt.Errorf("cpumodel: empty iteration space (%d)", iters)
	}
	threads := c.threads
	if int64(threads) > iters {
		threads = int(iters)
	}

	cpi := c.est.cycles(mid, branchProb, c.defaultTrip)

	p := Prediction{Threads: threads}

	// Edge-of-iteration-space probes for the static-schedule maximum.
	if threads > 1 {
		for _, frac := range [2]float64{1 / (2 * float64(threads)),
			1 - 1/(2*float64(threads))} {
			copy(scratch, vals)
			c.aug.Fraction(scratch, frac)
			if edgeCPI := c.est.cycles(scratch, branchProb, c.defaultTrip); edgeCPI > cpi {
				cpi = edgeCPI
			}
		}
	}

	cm := c.cpu
	if c.ipda != nil && c.ipda.Vectorizable(vals) {
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

	load := c.count.Eval(mid, branchProb, c.defaultTrip)
	if c.ipda != nil {
		var memCycles float64
		for i := range c.ipda.Sites {
			s := &c.ipda.Sites[i]
			var (
				affine   bool
				st       int64
				strideOK bool
			)
			if s.HasInner {
				affine = s.InnerAffine
				if affine {
					st, strideOK = s.InnerStrideVal(vals)
				}
			} else {
				affine = s.ThreadAffine
				if affine {
					st, strideOK = s.ThreadStrideVal(vals), true
				}
			}
			lat := c.streamCost
			if affine {
				if strideOK {
					elem := s.ElemSize
					switch {
					case st == 0:
						lat = float64(cm.L1.LatencyCycle)
					case st == 1 || st == -1:
						lat = c.streamCost
					default:
						lat = float64(cm.MemLatency)
						if s.ThreadAffine {
							if ts := s.ThreadStrideVal(vals); ts >= -1 && ts <= 1 {
								lat = float64(cm.L2.LatencyCycle)
							}
						}
						if abs64(st*elem) >= cm.PageBytes {
							lat += float64(cm.TLBMissPenalty)
						}
					}
				}
			} else {
				lat = float64(cm.MemLatency)
			}
			memCycles += s.Weight * lat
		}
		p.Cache = memCycles * float64(chunk)
	} else {
		pages := float64(chunk) * load.Mem() * 8 / float64(cm.PageBytes)
		p.Cache = load.Mem()*c.streamCost*float64(chunk) +
			pages*float64(cm.TLBMissPenalty)
	}

	if c.ipda != nil {
		risk := c.ipda.FalseSharingRisk(vals, chunk, cm.L1.LineBytes)
		if risk > 0 {
			storesPerChunk := load.Stores * float64(chunk)
			p.FalseSharing = risk * storesPerChunk * float64(cm.L3.LatencyCycle)
		}
	}

	p.Cycles = p.Fork + p.Schedule + p.ChunkWork + p.LoopOverhead +
		p.Cache + p.Join + p.FalseSharing
	p.Seconds = p.Cycles / (cm.FreqGHz * 1e9)
	return p, nil
}

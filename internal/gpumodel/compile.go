package gpumodel

import (
	"fmt"
	"math"

	"github.com/hybridsel/hybridsel/internal/ipda"
	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// CompileInput gathers the kernel, device and pre-compiled analyses a
// region compiles its GPU model against; the slot layout and compiled
// analyses are shared with the CPU model.
type CompileInput struct {
	Kernel  *ir.Kernel
	GPU     *machine.GPU
	Link    machine.Link
	Options Options

	// IPDA is the compiled stride analysis; required when
	// Options.Coalescing == UseIPDA (as the interpreted model requires
	// the interpreted analysis).
	IPDA *ipda.CompiledResult

	// Count is the compiled instruction counter over Slots.
	Count *ir.CountProgram

	// Slots is the slot layout and Bound the raw (parameter) name set.
	Slots map[string]int
	Bound map[string]bool

	// DefaultTrip is the CountOptions.DefaultTrip the compiled model
	// replicates (0 selects ir.DefaultCountOptions().DefaultTrip).
	DefaultTrip int64
}

// compiledTransfer is one array's compiled byte-size expression; times is
// 1 for one-directional arrays and 2 when the array crosses the link both
// ways (In and Out).
type compiledTransfer struct {
	bytes symbolic.Compiled
	times int
}

// Compiled is the Hong–Kim Predict specialized to one (kernel, GPU,
// link, options) region: grid-independent occupancy bounds, stride
// classification programs and transfer-size polynomials are fixed at
// compile time, so each Predict call is slot-vector evaluation plus the
// model's own arithmetic, bit-for-bit identical to the interpreted
// Predict.
type Compiled struct {
	g           *machine.GPU
	link        machine.Link
	opts        Options
	ipda        *ipda.CompiledResult
	count       *ir.CountProgram
	iterSpace   symbolic.Compiled
	transfers   []compiledTransfer
	defaultTrip int64
}

// Compile specializes the model to the region. It fails — and with it
// the region's registration — exactly when the interpreted Predict would
// error per call: unresolvable iteration space or array sizes, or an IPDA
// coalescing source with no analysis supplied.
func Compile(in CompileInput) (*Compiled, error) {
	if in.Kernel == nil || in.GPU == nil {
		return nil, fmt.Errorf("gpumodel: nil kernel or GPU")
	}
	if in.Count == nil {
		return nil, fmt.Errorf("gpumodel: compile: missing count program")
	}
	if in.Options.Coalescing == UseIPDA && in.IPDA == nil {
		return nil, fmt.Errorf("gpumodel: coalescing source is IPDA but no analysis supplied")
	}
	c := &Compiled{
		g:           in.GPU,
		link:        in.Link,
		opts:        in.Options,
		ipda:        in.IPDA,
		count:       in.Count,
		defaultTrip: in.DefaultTrip,
	}
	if c.defaultTrip == 0 {
		c.defaultTrip = ir.DefaultCountOptions().DefaultTrip
	}
	space := in.Kernel.IterSpace()
	if !ir.Resolvable(space, in.Bound) {
		return nil, fmt.Errorf("gpumodel: compile: iteration space %s not resolvable from parameters", space)
	}
	cs, err := symbolic.Compile(space, in.Slots)
	if err != nil {
		return nil, err
	}
	c.iterSpace = cs

	if in.Options.IncludeTransfer {
		for _, a := range in.Kernel.Arrays {
			// The interpreted TransferBytes sizes every array, erroring on
			// any unresolvable one even if it never crosses the link.
			bexpr := a.Bytes()
			if !ir.Resolvable(bexpr, in.Bound) {
				return nil, fmt.Errorf("gpumodel: compile: sizing %s: %s not resolvable from parameters",
					a.Name, bexpr)
			}
			times := 0
			if a.In {
				times++
			}
			if a.Out {
				times++
			}
			if times == 0 {
				continue
			}
			cb, err := symbolic.Compile(bexpr, in.Slots)
			if err != nil {
				return nil, err
			}
			c.transfers = append(c.transfers, compiledTransfer{bytes: cb, times: times})
		}
	}
	return c, nil
}

// Predict replays the interpreted Predict over slot vectors. vals is the
// raw parameter vector and mid the midpoint-augmented copy (the hybrid
// counting bindings).
func (c *Compiled) Predict(vals, mid []int64, branchProb, iterFraction float64) (Prediction, error) {
	g := c.g
	iters := c.iterSpace.Eval(vals)
	frac := 1.0
	if f := iterFraction; f > 0 && f < 1 {
		frac = f
		iters = int64(float64(iters)*f + 0.5)
		if iters < 1 {
			iters = 1
		}
	}
	if iters <= 0 {
		return Prediction{}, fmt.Errorf("gpumodel: empty iteration space (%d)", iters)
	}

	var p Prediction

	tpb := g.DefaultBlockSize
	blocks := (iters + int64(tpb) - 1) / int64(tpb)
	if blocks > int64(g.MaxGridBlocks) {
		blocks = int64(g.MaxGridBlocks)
	}
	p.Blocks = blocks
	p.ThreadsPerBlk = tpb

	p.OMPRep = 1
	if c.opts.OMPRep {
		p.OMPRep = math.Ceil(float64(iters) / float64(blocks*int64(tpb)))
	}

	warpsPerBlock := float64(tpb) / float64(g.WarpSize)
	blocksPerSM := int64(g.MaxBlocksPerSM)
	if mw := int64(float64(g.MaxWarpsPerSM) / warpsPerBlock); mw < blocksPerSM {
		blocksPerSM = mw
	}
	if mt := int64(g.MaxThreadsPerSM / tpb); mt < blocksPerSM {
		blocksPerSM = mt
	}
	activeSMs := g.SMs
	if blocks < int64(g.SMs) {
		activeSMs = int(blocks)
	}
	p.ActiveSMs = activeSMs
	residentBlocks := blocksPerSM
	if perSM := (blocks + int64(activeSMs) - 1) / int64(activeSMs); perSM < residentBlocks {
		residentBlocks = perSM
	}
	N := float64(residentBlocks) * warpsPerBlock
	if N < 1 {
		N = 1
	}
	p.N = N
	p.WarpsPerSM = N

	p.Rep = float64(blocks) / (float64(residentBlocks) * float64(activeSMs))
	if p.Rep < 1 {
		p.Rep = 1
	}

	load := c.count.Eval(mid, branchProb, c.defaultTrip)
	memInsts := load.Mem()
	compInsts := load.Total() - memInsts
	p.MemInsts = memInsts

	geom := ipda.WarpGeom{WarpSize: g.WarpSize, TransactionBytes: g.L2.LineBytes}
	coalFrac := 1.0
	switch c.opts.Coalescing {
	case UseIPDA:
		coalFrac = c.ipda.CoalescedFraction(vals, geom)
	case AssumeAllCoalesced:
		coalFrac = 1
	case AssumeAllUncoalesced:
		coalFrac = 0
	}
	p.CoalFraction = coalFrac

	memL := float64(g.MemLatency)
	depCoal := g.DepartureDelayCoal
	depUncoal := g.DepartureDelayUncoal * float64(g.WarpSize)
	departure := coalFrac*depCoal + (1-coalFrac)*depUncoal
	if departure <= 0 {
		departure = depCoal
	}

	p.MemLatencyCoal = memL
	p.MemLatencyUnc = memL + (float64(g.WarpSize)-1)*g.DepartureDelayUncoal

	var memCycles float64
	if c.opts.CacheAware && c.opts.Coalescing == UseIPDA && c.ipda != nil {
		memCycles = c.cacheAwareMemCycles(vals, mid, geom)
	} else {
		nCoal := memInsts * coalFrac
		nUncoal := memInsts * (1 - coalFrac)
		memCycles = nCoal*p.MemLatencyCoal + nUncoal*p.MemLatencyUnc
	}
	p.MemCycles = memCycles

	compCycles := g.IssueRate * compInsts
	compCycles += load.FPDiv*float64(g.FPLatency)*4 + load.FPSpecial*float64(g.FPLatency)*4
	p.CompCycles = compCycles

	p.MWPWithoutBW = memL / departure
	loadBytesPerWarp := float64(g.WarpSize) * 8
	bwPerWarp := g.ClockGHz * 1e9 * loadBytesPerWarp / memL
	p.MWPPeakBW = g.PeakBandwidthBytes() / (bwPerWarp * float64(activeSMs))
	p.MWP = math.Min(math.Min(p.MWPWithoutBW, p.MWPPeakBW), N)
	if p.MWP < 1 {
		p.MWP = 1
	}

	if compCycles > 0 {
		p.CWP = math.Min((memCycles+compCycles)/compCycles, N)
	} else {
		p.CWP = N
	}
	if p.CWP < 1 {
		p.CWP = 1
	}

	var exec float64
	perMem := 0.0
	if memInsts > 0 {
		perMem = compCycles / memInsts
	}
	switch {
	case memInsts == 0:
		exec = compCycles * N / math.Max(1, math.Min(N, float64(g.CoresPerSM)/float64(g.WarpSize)))
	case p.MWP >= p.CWP && nearlyEqual(p.MWP, N) && nearlyEqual(p.CWP, N):
		exec = memCycles + compCycles + perMem*(p.MWP-1)
	case p.CWP >= p.MWP:
		exec = memCycles*N/p.MWP + perMem*(p.MWP-1)
	default:
		exec = memL + compCycles*N
	}
	exec *= p.Rep * p.OMPRep
	p.ExecCycles = exec

	sec := exec / (g.ClockGHz * 1e9)
	p.LaunchSeconds = launchOverheadSec
	sec += launchOverheadSec

	if c.opts.IncludeTransfer {
		var bytes int64
		for i := range c.transfers {
			t := &c.transfers[i]
			n := t.bytes.Eval(vals)
			for j := 0; j < t.times; j++ {
				bytes += n
			}
		}
		bytes = int64(float64(bytes) * frac)
		p.TransferBytes = bytes
		p.TransferSeconds = c.link.TransferSeconds(bytes)
		sec += p.TransferSeconds
	}
	p.Seconds = sec
	return p, nil
}

// cacheAwareMemCycles replays the interpreted cacheAwareMemCycles over
// the compiled sites (same site order, same fallbacks).
func (c *Compiled) cacheAwareMemCycles(vals, mid []int64, geom ipda.WarpGeom) float64 {
	g := c.g
	uncoalPerTx := g.DepartureDelayUncoal
	var total float64
	for i := range c.ipda.Sites {
		s := &c.ipda.Sites[i]
		wa := s.ResolveGPU(vals, geom)
		lat := float64(g.MemLatency)
		switch wa.Class {
		case ipda.Uniform:
			lat = float64(g.L1HitLatency)
		case ipda.Coalesced:
			if s.HasInner && s.InnerAffine {
				if st, ok := s.InnerStrideVal(vals); ok && st == 0 {
					lat = float64(g.L1HitLatency)
				}
			}
		case ipda.Strided, ipda.Uncoalesced, ipda.NonUniform:
			lat = float64(g.MemLatency) +
				float64(wa.Transactions-1)*uncoalPerTx
			if s.InnerAffine {
				if st, ok := s.InnerStrideVal(vals); ok && (st == 1 || st == -1) {
					fr := float64(s.ElemSize) / float64(g.L1.LineBytes)
					lat = float64(g.L1HitLatency) + lat*fr
				}
			}
		}
		if s.SeqDepth >= 2 {
			trip := c.defaultTrip
			if t, ok := s.SeqTrip.Eval(mid); ok {
				trip = t
			}
			fp := trip * int64(wa.Transactions) * g.L2.LineBytes
			if fp <= g.L2.SizeBytes && float64(g.L2HitLatency) < lat {
				lat = float64(g.L2HitLatency)
			}
		}
		total += s.Weight * lat
	}
	return total
}

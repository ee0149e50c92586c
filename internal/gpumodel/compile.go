package gpumodel

import (
	"fmt"
	"math"

	"github.com/hybridsel/hybridsel/internal/ipda"
	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/machine"
)

// CompileInput gathers what a region compiles its GPU model against: the
// kernel, the device and its link, and the region's Shape, which the CPU
// model and every other target share.
type CompileInput struct {
	Kernel  *ir.Kernel
	GPU     *machine.GPU
	Link    machine.Link
	Options Options

	Shape *ipda.Shape
}

// Compiled is the Hong–Kim Predict specialized to one (kernel, GPU, link,
// options) region: the kernel analysis is read off the launch's resolved
// ipda.Point, so each call is the model's own arithmetic over the device's
// parameters, bit-for-bit identical to the interpreted Predict.
type Compiled struct {
	g     *machine.GPU
	link  machine.Link
	opts  Options
	shape *ipda.Shape
	geom  ipda.WarpGeom
}

// Compile specializes the model to the region. It fails — and with it the
// region's registration — exactly when the interpreted Predict would error
// per call and CompileShape has not already: an array whose size the
// parameters do not resolve.
func Compile(in CompileInput) (*Compiled, error) {
	if in.Kernel == nil || in.GPU == nil || in.Shape == nil {
		return nil, fmt.Errorf("gpumodel: compile: nil kernel, GPU or shape")
	}
	if in.Options.IncludeTransfer {
		// The interpreted TransferBytes sizes every array, erroring on
		// any unresolvable one even if it never crosses the link.
		for _, a := range in.Kernel.Arrays {
			if bexpr := a.Bytes(); !ir.Resolvable(bexpr, in.Shape.Bound) {
				return nil, fmt.Errorf("gpumodel: compile: sizing %s: %s not resolvable from parameters",
					a.Name, bexpr)
			}
		}
	}
	return &Compiled{g: in.GPU, link: in.Link, opts: in.Options, shape: in.Shape,
		geom: ipda.WarpGeom{WarpSize: in.GPU.WarpSize, TransactionBytes: in.GPU.L2.LineBytes}}, nil
}

// Seconds is the predicted time of the region's launch at pt with the
// device running iterFraction of the iteration space (0: all of it) — what
// a decision needs of Predict.
func (c *Compiled) Seconds(pt *ipda.Point, iterFraction float64) (float64, error) {
	var p Prediction
	err := c.predict(pt, iterFraction, &p)
	return p.Seconds, err
}

// Predict is Seconds with the model's whole breakdown, the form the
// equivalence tests compare field by field against the interpreted
// Predict.
func (c *Compiled) Predict(pt *ipda.Point, iterFraction float64) (Prediction, error) {
	var p Prediction
	err := c.predict(pt, iterFraction, &p)
	return p, err
}

// predict replays the interpreted Predict over the launch's resolved
// point into *p (zero on entry).
func (c *Compiled) predict(pt *ipda.Point, iterFraction float64, p *Prediction) error {
	g := c.g
	iters := pt.Iters
	frac := 1.0
	if f := iterFraction; f > 0 && f < 1 {
		frac = f
		iters = int64(float64(iters)*f + 0.5)
		if iters < 1 {
			iters = 1
		}
	}
	if iters <= 0 {
		return fmt.Errorf("gpumodel: empty iteration space (%d)", iters)
	}

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

	load := &pt.Load
	memInsts := load.Mem()
	compInsts := load.Total() - memInsts
	p.MemInsts = memInsts

	coalFrac := 1.0
	switch c.opts.Coalescing {
	case UseIPDA:
		coalFrac = pt.Warp(c.geom).CoalescedFrac
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
	if c.opts.CacheAware && c.opts.Coalescing == UseIPDA {
		memCycles = c.cacheAwareMemCycles(pt)
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
		bytes := int64(float64(pt.TransferBytes) * frac)
		p.TransferBytes = bytes
		p.TransferSeconds = c.link.TransferSeconds(bytes)
		sec += p.TransferSeconds
	}
	p.Seconds = sec
	return nil
}

// cacheAwareMemCycles replays the interpreted cacheAwareMemCycles over
// the compiled sites (same site order, same fallbacks).
func (c *Compiled) cacheAwareMemCycles(pt *ipda.Point) float64 {
	g := c.g
	uncoalPerTx := g.DepartureDelayUncoal
	access := pt.Warp(c.geom).Access
	var total float64
	for i := range c.shape.Sites {
		s, sp, wa := &c.shape.Sites[i], &pt.Sites[i], &access[i]
		lat := float64(g.MemLatency)
		switch wa.Class {
		case ipda.Uniform:
			lat = float64(g.L1HitLatency)
		case ipda.Coalesced:
			if s.HasInner && sp.InnerOK && sp.Inner == 0 {
				lat = float64(g.L1HitLatency)
			}
		case ipda.Strided, ipda.Uncoalesced, ipda.NonUniform:
			lat = float64(g.MemLatency) +
				float64(wa.Transactions-1)*uncoalPerTx
			if sp.InnerOK && (sp.Inner == 1 || sp.Inner == -1) {
				fr := float64(s.ElemSize) / float64(g.L1.LineBytes)
				lat = float64(g.L1HitLatency) + lat*fr
			}
		}
		if s.SeqDepth >= 2 {
			fp := sp.SeqTrip * int64(wa.Transactions) * g.L2.LineBytes
			if fp <= g.L2.SizeBytes && float64(g.L2HitLatency) < lat {
				lat = float64(g.L2HitLatency)
			}
		}
		total += s.Weight * lat
	}
	return total
}

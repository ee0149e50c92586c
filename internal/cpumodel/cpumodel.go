// Package cpumodel implements the compile-time OpenMP cost model of Liao
// and Chapman (paper Figure 3, OpenUH/Open64 lineage), specialised — as in
// the paper — to strictly-parallel loop regions:
//
//	Parallel_Region = Fork + Σ_j max_i(Thread_exe_i_j) + Join
//	Parallel_for    = Schedule_times × (Schedule + Loop_chunk)
//	Loop_chunk      = Machine_cycles_per_iter × Chunk_size + Cache + Loop_overhead
//
// Machine_cycles_per_iter comes from the MCA-style pipeline analyzer
// (package mca), replacing the original model's dependence on the OpenUH
// instruction scheduler exactly as the paper replaces it with LLVM-MCA.
// Runtime parameters (Table II) are measured with EPCC-style
// micro-benchmarks (package epcc).
package cpumodel

import (
	"fmt"

	"github.com/hybridsel/hybridsel/internal/ipda"
	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/mca"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// CPIEstimator supplies Machine_cycles_per_iter for one work item.
// The default is the MCA pipeline analysis; FixedCPI provides the
// ablation baseline of a flat cycles-per-instruction guess.
type CPIEstimator interface {
	CyclesPerWorkItem(k *ir.Kernel, cpu *machine.CPU, opt ir.CountOptions) (float64, error)
	Name() string
}

// MCAEstimator estimates cycles with the machine-code analyzer.
type MCAEstimator struct{}

// CyclesPerWorkItem implements CPIEstimator via mca.EstimateCyclesPerIter.
func (MCAEstimator) CyclesPerWorkItem(k *ir.Kernel, cpu *machine.CPU, opt ir.CountOptions) (float64, error) {
	return mca.EstimateCyclesPerIter(k, cpu, opt)
}

// Name identifies the estimator.
func (MCAEstimator) Name() string { return "llvm-mca" }

// FixedCPI multiplies the static instruction count by a constant CPI —
// the crude estimate analytical models used before scheduler-driven tools.
type FixedCPI struct{ CPI float64 }

// CyclesPerWorkItem implements CPIEstimator with count × CPI.
func (f FixedCPI) CyclesPerWorkItem(k *ir.Kernel, cpu *machine.CPU, opt ir.CountOptions) (float64, error) {
	l := ir.Count(k, opt)
	return l.Total() * f.CPI, nil
}

// Name identifies the estimator.
func (f FixedCPI) Name() string { return fmt.Sprintf("fixed-cpi(%.2g)", f.CPI) }

// Input gathers everything the model needs for one prediction.
type Input struct {
	Kernel  *ir.Kernel
	CPU     *machine.CPU
	Threads int // OMP_NUM_THREADS; capped at the hardware thread count

	// Bindings are the runtime parameter values (the hybrid part).
	Bindings symbolic.Bindings

	// CountOpt carries the static heuristics; its Bindings field is set
	// from Bindings automatically when nil.
	CountOpt ir.CountOptions

	// IPDA, when non-nil, refines the model: vectorizability scales the
	// per-iteration cycles, and false-sharing risk adds coherence
	// penalties. When nil the model assumes scalar, non-interfering code.
	IPDA *ipda.Result

	// Estimator defaults to MCAEstimator.
	Estimator CPIEstimator

	// IterFraction, when in (0,1), predicts execution of only the
	// leading fraction of the iteration space — the building block of
	// cooperative CPU+GPU split execution. 0 (or 1) means the whole
	// space.
	IterFraction float64

	// DynamicChunk, when positive, models `schedule(dynamic, chunk)`:
	// threads draw chunks of that many iterations from a shared queue, so
	// work balances to the mean at the cost of one dispatch per chunk
	// (Liao's Schedule_times × Schedule_c term). Zero models the default
	// static schedule, whose region time follows the slowest thread — the
	// maximum in Figure 3's parallel-region equation.
	DynamicChunk int64
}

// Prediction is the model output with its additive breakdown (cycles at
// the CPU clock).
type Prediction struct {
	Cycles  float64
	Seconds float64

	Fork          float64 // Par_Startup
	Schedule      float64 // Par_Schedule_Overhead_static
	ChunkWork     float64 // Machine_cycles_per_iter × chunk
	LoopOverhead  float64 // Loop_overhead_per_iter × chunk
	Cache         float64 // TLB-miss estimate (the model's only memory term)
	Join          float64 // Synchronization_Overhead
	FalseSharing  float64 // coherence penalty from IPDA store analysis
	CyclesPerIter float64 // per work item, after vectorization scaling
	Vectorized    bool
	Threads       int
	ChunkIters    int64
	EffParallel   float64
}

// Predict evaluates the Liao cost model for the kernel on the CPU: it
// resolves the launch by symbolic evaluation under the bindings map
// (ipda.ResolveBindings, the interpreted estimator) and prices it with the
// arithmetic every Compiled model prices its slot-resolved launches with.
func Predict(in Input) (Prediction, error) {
	if in.Kernel == nil || in.CPU == nil {
		return Prediction{}, fmt.Errorf("cpumodel: nil kernel or CPU")
	}
	opt := in.CountOpt.ForLaunch(in.Kernel, in.Bindings)
	pt, err := ipda.ResolveBindings(in.Kernel, in.IPDA, in.Bindings, opt)
	if err != nil {
		return Prediction{}, fmt.Errorf("cpumodel: %w", err)
	}
	cost := &mapCost{est: in.Estimator, k: in.Kernel, cpu: in.CPU, opt: opt, b: in.Bindings}
	if cost.est == nil {
		cost.est = MCAEstimator{}
	}
	m := newModel(in.CPU, in.Threads, cost)
	m.dynamicChunk = in.DynamicChunk
	var p Prediction
	if err := m.price(pt, in.IterFraction, &p); err != nil {
		return Prediction{}, err
	}
	return p, nil
}

// workItemCost supplies Machine_cycles_per_iter of a resolved launch: with
// the parallel indices at the midpoint of their ranges (edge 0), or pinned
// at the fraction edge of them.
type workItemCost interface {
	cycles(pt *ipda.Point, edge float64) (float64, error)
}

// mapCost asks a CPIEstimator, re-analysing the kernel under the bindings
// map; it reads nothing off the point.
type mapCost struct {
	est CPIEstimator
	k   *ir.Kernel
	cpu *machine.CPU
	opt ir.CountOptions
	b   symbolic.Bindings
}

func (m *mapCost) cycles(_ *ipda.Point, edge float64) (float64, error) {
	opt := m.opt
	if edge != 0 {
		opt.Bindings = ir.FractionBindings(m.k, m.b, edge)
	}
	return m.est.CyclesPerWorkItem(m.k, m.cpu, opt)
}

// model is the Liao model of one (CPU, thread count, schedule) over a
// source of work-item costs: the one pricer of resolved launches, whichever
// resolver filled them.
type model struct {
	cpu     *machine.CPU
	threads int // capped at the hardware thread count
	cost    workItemCost

	// dynamicChunk is Input.DynamicChunk; the offload runtime only ever
	// requests the static schedule, 0.
	dynamicChunk int64
	// edgesFlat reports that a work item costs the same everywhere in the
	// iteration space, so the static schedule's slowest thread need not be
	// looked for at its edges.
	edgesFlat bool
	// streamCost is what a contiguous stream pays per access: the
	// load-stream prefetcher catches it, so a refill costs roughly an L2
	// hit, amortized over the line.
	streamCost float64
}

func newModel(cpu *machine.CPU, threads int, cost workItemCost) model {
	if threads <= 0 || threads > cpu.Threads() {
		threads = cpu.Threads()
	}
	return model{cpu: cpu, threads: threads, cost: cost,
		streamCost: float64(cpu.L1.LatencyCycle) +
			float64(cpu.L2.LatencyCycle)*8/float64(cpu.L1.LineBytes)}
}

// price evaluates the model over the resolved launch pt into *p (zero on
// entry), the target running iterFraction of the iteration space.
func (m *model) price(pt *ipda.Point, iterFraction float64, p *Prediction) error {
	iters, err := pt.Span(iterFraction)
	if err != nil {
		return fmt.Errorf("cpumodel: %w", err)
	}
	threads := m.threads
	if int64(threads) > iters {
		threads = int(iters)
	}
	p.Threads = threads

	cpi, err := m.cost.cycles(pt, 0)
	if err != nil {
		return err
	}
	// Figure 3 takes the maximum over threads. Under the default static
	// schedule, a triangular nest gives its first and last chunks very
	// different work: evaluate the per-iteration cost at the edges of
	// the iteration space and charge the slowest thread's chunk. Under a
	// dynamic schedule the queue balances work to the mean, so the
	// midpoint estimate (already in cpi) stands, plus per-chunk dispatch.
	if m.dynamicChunk <= 0 && threads > 1 && !m.edgesFlat {
		for _, frac := range [2]float64{1 / (2 * float64(threads)),
			1 - 1/(2*float64(threads))} {
			edgeCPI, err := m.cost.cycles(pt, frac)
			if err != nil {
				return err
			}
			if edgeCPI > cpi {
				cpi = edgeCPI
			}
		}
	}

	// Vectorization of the compiler-generated fallback loop: IPDA proves
	// lane-contiguity; the generation's SIMD quality scales the win.
	c := m.cpu
	if pt.Vectorizable {
		vf := 1 + float64(c.VectorLanesF64-1)*c.VecEfficiency
		cpi /= vf
		p.Vectorized = true
	}
	p.CyclesPerIter = cpi

	// Static schedule: each thread receives one chunk of ceil(I/T)
	// iterations; the region cost follows the slowest (= largest) chunk.
	chunk := (iters + int64(threads) - 1) / int64(threads)
	p.ChunkIters = chunk

	// SMT de-rating: threads beyond the physical cores add only
	// SMTYield of a core each, so per-thread throughput drops.
	eff := float64(threads)
	if threads > c.Cores {
		cores := float64(c.Cores)
		eff = cores * (1 + c.SMTYield*(float64(threads)/cores-1))
	}
	p.EffParallel = eff
	slowdown := float64(threads) / eff

	p.Fork, p.Schedule, p.Join = c.OverheadCycles(threads)
	if m.dynamicChunk > 0 {
		// Schedule_times = chunks handled per thread; each costs one
		// dispatch round trip to the shared queue.
		chunks := (iters + m.dynamicChunk - 1) / m.dynamicChunk
		perThread := (chunks + int64(threads) - 1) / int64(threads)
		p.Schedule += float64(perThread) * float64(c.OMP.ChunkDispatch)
	}
	p.ChunkWork = cpi * float64(chunk) * slowdown
	p.LoopOverhead = float64(c.OMP.LoopOverheadIter) * float64(chunk)

	// Cache_c term of Loop_chunk. Without IPDA the model falls back to
	// charging every access the prefetched-stream cost plus a page-grain
	// TLB estimate.
	cache := m.siteCycles(pt) * float64(chunk)
	if !pt.Analyzed {
		pages := float64(chunk) * pt.Load.Mem() * 8 / float64(c.PageBytes)
		cache = pt.Load.Mem()*m.streamCost*float64(chunk) +
			pages*float64(c.TLBMissPenalty)
	}
	p.Cache = cache

	// False sharing: stores by adjacent threads within one line serialize
	// on coherence; penalty ≈ a cross-core transfer per risky store.
	if risk := pt.FalseSharingRisk(chunk, c.L1.LineBytes); risk > 0 {
		storesPerChunk := pt.Load.Stores * float64(chunk)
		p.FalseSharing = risk * storesPerChunk * float64(c.L3.LatencyCycle)
	}

	p.Cycles = p.Fork + p.Schedule + p.ChunkWork + p.LoopOverhead +
		p.Cache + p.Join + p.FalseSharing
	p.Seconds = p.Cycles / (c.FreqGHz * 1e9)
	return nil
}

// siteCycles is the analytical memory cost of one work item: each access
// site classified by its IPDA inner stride (this is the locality
// information Section II-C says the analysis exposes):
//
//	stride 0   — loop-invariant operand, register/L1 resident;
//	stride ±1  — hardware-prefetched stream: one line fill amortized
//	             over the elements of the line;
//	large      — unprefetchable walk: full memory latency, plus the
//	             TLB miss penalty (Table II) when the stride crosses
//	             pages.
func (m *model) siteCycles(pt *ipda.Point) float64 {
	c := m.cpu
	var memCycles float64
	for i := range pt.Sites {
		s := &pt.Sites[i]
		// Locality axis: the innermost sequential loop when there is
		// one; otherwise consecutive work items of the same thread
		// (the innermost parallel loop).
		affine, st, strideOK := s.ThreadAffine, s.Thread, true
		if s.HasInner {
			affine, st, strideOK = s.InnerAffine, s.Inner, s.InnerOK
		}
		lat := m.streamCost
		if !affine {
			lat = float64(c.MemLatency)
		} else if strideOK {
			switch {
			case st == 0:
				lat = float64(c.L1.LatencyCycle)
			case st == 1 || st == -1:
				lat = m.streamCost
			default:
				// Large-stride walk. If consecutive work items of the
				// same thread revisit the neighbouring element (thread
				// stride ≤ 1 element), the lines stay L2 resident across
				// items; otherwise the walk pays full memory latency.
				lat = float64(c.MemLatency)
				if s.ThreadAffine && s.Thread >= -1 && s.Thread <= 1 {
					lat = float64(c.L2.LatencyCycle)
				}
				if abs64(st*s.ElemSize) >= c.PageBytes {
					lat += float64(c.TLBMissPenalty)
				}
			}
		}
		memCycles += s.Weight * lat
	}
	return memCycles
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

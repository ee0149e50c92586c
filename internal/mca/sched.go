package mca

import (
	"math"

	"github.com/hybridsel/hybridsel/internal/machine"
)

// BlockStats is the steady-state analysis of one block.
type BlockStats struct {
	Label string
	Trips float64
	// CyclesPerIter is the steady-state cycles to retire one iteration of
	// the block.
	CyclesPerIter float64
	// IPC is ops per cycle at steady state.
	IPC float64
	// Pressure maps each functional unit kind to its utilization in
	// [0,1] (busy pipe-cycles over total pipe-cycles), llvm-mca's
	// "resource pressure" view.
	Pressure map[machine.UnitKind]float64
	// CritChain is the longest register dependency chain latency through
	// one block iteration, in cycles.
	CritChain float64
	Ops       int
}

// Report is the full analysis of a lowered program on a CPU model.
type Report struct {
	CPU    string
	Kernel string
	Blocks []BlockStats
	// CyclesPerWorkItem is sum over blocks of CyclesPerIter*Trips — the
	// Machine_cycles_per_iter input of the Liao cost model.
	CyclesPerWorkItem float64
	// TotalOps is the expected dynamic op count per work item.
	TotalOps float64
}

// IPC returns the overall ops-per-cycle of the work item.
func (r *Report) IPC() float64 {
	if r.CyclesPerWorkItem == 0 {
		return 0
	}
	return r.TotalOps / r.CyclesPerWorkItem
}

// simIterations is the number of block iterations replayed to reach and
// measure steady state, llvm-mca's default spirit (it replays 100).
const simIterations = 64

// Analyze replays the program against the CPU's scheduling model and
// returns the throughput report.
func Analyze(p *Program, cpu *machine.CPU) *Report {
	rep := &Report{CPU: cpu.Name, Kernel: p.Kernel, TotalOps: p.TotalOps()}
	for _, b := range p.Blocks {
		st := analyzeBlock(&b, cpu)
		rep.Blocks = append(rep.Blocks, st)
		rep.CyclesPerWorkItem += st.CyclesPerIter * b.Trips
	}
	return rep
}

// unitKinds sizes the busy array, indexed by machine.UnitKind: an entry
// for every value the type can hold.
const unitKinds = 1 << 8

// resolvedOp is one MOp looked up once per block: its unit's numbers on the
// core, its operands and results as indices of the replay's ready times.
type resolvedOp struct {
	unit       machine.UnitKind
	pipes      float64 // of the unit on this core; 0 when it has none
	recip, lat float64
	def, carry int32   // ready time written, or -1
	uses       []int32 // ready times read; operands naming none are dropped
}

// resolve looks the block's ops up on cpu, numbering carried scalars from
// b.NReg by first appearance; n counts the ready times the ops index.
func resolve(b *Block, cpu *machine.CPU) (ops []resolvedOp, n int) {
	carried := map[string]int32{}
	value := func(name string) int32 {
		i, ok := carried[name]
		if !ok {
			i = int32(b.NReg + len(carried))
			carried[name] = i
		}
		return i
	}
	ops = make([]resolvedOp, len(b.Ops))
	var uses []int32 // each op's are a window of it
	for i := range b.Ops {
		op, desc, lo := &b.Ops[i], cpu.Ops[b.Ops[i].Class], len(uses)
		for _, u := range op.Uses {
			switch {
			case u.Carried != "":
				uses = append(uses, value(u.Carried))
			case u.VReg >= 0 && u.VReg < b.NReg:
				uses = append(uses, int32(u.VReg))
			}
		}
		r := resolvedOp{unit: desc.Unit, pipes: float64(cpu.Units[desc.Unit]),
			recip: float64(desc.Recip), lat: float64(desc.Latency), def: -1, carry: -1, uses: uses[lo:]}
		if op.Def >= 0 && op.Def < b.NReg {
			r.def = int32(op.Def)
		}
		if op.DefScalar != "" {
			r.carry = value(op.DefScalar)
		}
		ops[i] = r
	}
	return ops, b.NReg + len(carried)
}

// analyzeBlock simulates simIterations of the block: in-order dispatch at
// the core's width into an out-of-order backend with per-unit pipe
// reservation and full register dependency tracking (including carried
// scalars across iterations).
func analyzeBlock(b *Block, cpu *machine.CPU) BlockStats {
	st := BlockStats{Label: b.Label, Trips: b.Trips, Ops: len(b.Ops),
		Pressure: map[machine.UnitKind]float64{}}
	if len(b.Ops) == 0 {
		return st
	}
	ops, n := resolve(b, cpu)

	// Per-unit cumulative busy cycles. The unit constraint is enforced as
	// a throughput bound — an op cannot start before the unit has had
	// enough pipe-cycles to absorb all prior work — which lets younger
	// independent ops issue around older stalled ones, as an
	// out-of-order backend does.
	var busy [unitKinds]float64

	width := float64(cpu.DispatchWidth)

	var dispatched float64 // total ops dispatched so far
	var prevDispatch float64
	var lastFinish float64
	var finishAtHalf float64
	half := simIterations / 2

	// Registers are reset every iteration; carried scalars persist, and one
	// not yet defined reads -Inf, which no math.Max picks.
	ready := make([]float64, n)
	for i := b.NReg; i < n; i++ {
		ready[i] = math.Inf(-1)
	}
	for it := 0; it < simIterations; it++ {
		clear(ready[:b.NReg])
		for i := range ops {
			op := &ops[i]
			// In-order dispatch: width ops per cycle, monotone.
			dispatch := math.Max(prevDispatch, dispatched/width)
			prevDispatch = dispatch
			dispatched++

			src := dispatch
			for _, u := range op.uses {
				src = math.Max(src, ready[u])
			}
			// Unit throughput bound.
			start := math.Max(src, busy[op.unit]/op.pipes)
			busy[op.unit] += op.recip
			done := start + op.lat
			if op.def >= 0 {
				ready[op.def] = done
			}
			if op.carry >= 0 {
				ready[op.carry] = done
			}
			if done > lastFinish {
				lastFinish = done
			}
		}
		if it == half-1 {
			finishAtHalf = lastFinish
		}
	}
	st.CyclesPerIter = (lastFinish - finishAtHalf) / float64(simIterations-half)
	if st.CyclesPerIter <= 0 {
		st.CyclesPerIter = lastFinish / simIterations
	}
	if st.CyclesPerIter > 0 {
		st.IPC = float64(len(b.Ops)) / st.CyclesPerIter
	}
	// Resource pressure over the measured window.
	totalCycles := lastFinish
	if totalCycles > 0 {
		for k, n := range cpu.Units {
			st.Pressure[k] = busy[k] / (totalCycles * float64(n))
			if st.Pressure[k] > 1 {
				st.Pressure[k] = 1
			}
		}
	}
	st.CritChain = critChain(ops, ready)
	return st
}

// critChain computes the longest latency path through one iteration of the
// block (registers only; carried scalars contribute their definition's
// chain, 0 before it). chain is scratch, one entry per ready time.
func critChain(ops []resolvedOp, chain []float64) float64 {
	clear(chain)
	var longest float64
	for i := range ops {
		op := &ops[i]
		var in float64
		for _, u := range op.uses {
			in = math.Max(in, chain[u])
		}
		out := in + op.lat
		if op.def >= 0 {
			chain[op.def] = out
		}
		if op.carry >= 0 {
			chain[op.carry] = out
		}
		longest = math.Max(longest, out)
	}
	return longest
}

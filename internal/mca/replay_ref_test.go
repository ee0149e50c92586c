package mca

import (
	"math"
	"testing"

	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/polybench"
)

// TestReplayMatchesReference holds analyzeBlock, which replays over ops
// resolved to arrays, to the map-keyed replay it replaced (kept below as
// refAnalyzeBlock): every field of every block's stats, floats bit for
// bit, for every Polybench kernel and dataset mode on POWER8, POWER9 and
// an SMT2 POWER9, plus the small kernels of mca_test.go.
func TestReplayMatchesReference(t *testing.T) {
	cpus := []*machine.CPU{machine.POWER8(), machine.POWER9(), machine.ReducedSMT(machine.POWER9(), 2)}
	kernels := []*ir.Kernel{streamKernel(), chainKernel()}
	for _, pk := range polybench.Suite() {
		kernels = append(kernels, pk.IR)
	}
	blocks := 0
	for _, k := range kernels {
		for _, opt := range []ir.CountOptions{ir.DefaultCountOptions(), {DefaultTrip: 7, BranchProb: 0.3}} {
			p, err := Lower(k, opt)
			if err != nil {
				t.Fatalf("%s: %v", k.Name, err)
			}
			for _, cpu := range cpus {
				for i := range p.Blocks {
					b := &p.Blocks[i]
					got, want := analyzeBlock(b, cpu), refAnalyzeBlock(b, cpu)
					if diff := statsDiff(got, want); diff != "" {
						t.Errorf("%s block %d (%s) on %s: %s", k.Name, i, b.Label, cpu.Name, diff)
					}
					blocks++
				}
			}
		}
	}
	if blocks < 100 {
		t.Fatalf("compared only %d blocks", blocks)
	}
}

// TestReplayMatchesReferenceOddMachines covers what no shipped CPU has:
// a unit some op class issues to but the core has no pipe of (a zero
// divisor), three-pipe units, a dispatch width of one, and carried
// scalars read before any op of the block defines them.
func TestReplayMatchesReferenceOddMachines(t *testing.T) {
	noDiv := machine.POWER9()
	noDiv.Units = map[machine.UnitKind]int{machine.UnitFX: 3, machine.UnitLSU: 1, machine.UnitFP: 3, machine.UnitBR: 1}
	narrow := machine.POWER8()
	narrow.DispatchWidth = 1
	b := &Block{Label: "odd", Trips: 3, NReg: 3, Ops: []MOp{
		{Class: machine.OpLoad, Def: 0, Uses: []Operand{{Carried: "acc"}, {VReg: 7}}},
		{Class: machine.OpFDiv, Def: 1, Uses: []Operand{{VReg: 0}, {VReg: 2}}},
		{Class: machine.OpFAdd, Def: 2, DefScalar: "acc", Uses: []Operand{{Carried: "acc"}, {VReg: 1}}},
		{Class: machine.OpStore, Def: -1, DefScalar: "other", Uses: []Operand{{VReg: -1}, {Carried: "never"}}},
		{Class: machine.OpBranch, Def: 9},
	}}
	for _, cpu := range []*machine.CPU{noDiv, narrow} {
		got, want := analyzeBlock(b, cpu), refAnalyzeBlock(b, cpu)
		if diff := statsDiff(got, want); diff != "" {
			t.Errorf("%s: %s", cpu.Name, diff)
		}
	}
}

// statsDiff names the first field where two block stats differ, floats
// compared by their bits ("" when they are the same).
func statsDiff(got, want BlockStats) string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case got.Label != want.Label || got.Ops != want.Ops || !same(got.Trips, want.Trips):
		return "label, ops or trips differ"
	case !same(got.CyclesPerIter, want.CyclesPerIter):
		return "CyclesPerIter differs"
	case !same(got.IPC, want.IPC):
		return "IPC differs"
	case !same(got.CritChain, want.CritChain):
		return "CritChain differs"
	case len(got.Pressure) != len(want.Pressure):
		return "Pressure has other units"
	}
	for k, w := range want.Pressure {
		if g, ok := got.Pressure[k]; !ok || !same(g, w) {
			return "Pressure[" + k.String() + "] differs"
		}
	}
	return ""
}

// refAnalyzeBlock is the replay as it was written before ops were
// resolved to arrays: every op looks its unit, busy time and carried
// scalars up in maps on every iteration.
func refAnalyzeBlock(b *Block, cpu *machine.CPU) BlockStats {
	st := BlockStats{Label: b.Label, Trips: b.Trips, Ops: len(b.Ops),
		Pressure: map[machine.UnitKind]float64{}}
	if len(b.Ops) == 0 {
		return st
	}
	busy := map[machine.UnitKind]float64{}
	carried := map[string]float64{}
	width := float64(cpu.DispatchWidth)

	var dispatched float64
	var prevDispatch float64
	var lastFinish float64
	var finishAtHalf float64
	half := simIterations / 2

	ready := make([]float64, b.NReg)
	for it := 0; it < simIterations; it++ {
		for i := range ready {
			ready[i] = 0
		}
		for _, op := range b.Ops {
			desc := cpu.Ops[op.Class]
			dispatch := math.Max(prevDispatch, dispatched/width)
			prevDispatch = dispatch
			dispatched++

			src := dispatch
			for _, u := range op.Uses {
				if u.Carried != "" {
					if t, ok := carried[u.Carried]; ok {
						src = math.Max(src, t)
					}
					continue
				}
				if u.VReg >= 0 && u.VReg < len(ready) {
					src = math.Max(src, ready[u.VReg])
				}
			}
			pipes := float64(cpu.Units[desc.Unit])
			start := math.Max(src, busy[desc.Unit]/pipes)
			busy[desc.Unit] += float64(desc.Recip)
			done := start + float64(desc.Latency)
			if op.Def >= 0 && op.Def < len(ready) {
				ready[op.Def] = done
			}
			if op.DefScalar != "" {
				carried[op.DefScalar] = done
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
	totalCycles := lastFinish
	if totalCycles > 0 {
		for k, n := range cpu.Units {
			st.Pressure[k] = busy[k] / (totalCycles * float64(n))
			if st.Pressure[k] > 1 {
				st.Pressure[k] = 1
			}
		}
	}
	st.CritChain = refCritChain(b, cpu)
	return st
}

func refCritChain(b *Block, cpu *machine.CPU) float64 {
	regChain := make([]float64, b.NReg)
	carried := map[string]float64{}
	var longest float64
	for _, op := range b.Ops {
		var in float64
		for _, u := range op.Uses {
			if u.Carried != "" {
				in = math.Max(in, carried[u.Carried])
				continue
			}
			if u.VReg >= 0 && u.VReg < len(regChain) {
				in = math.Max(in, regChain[u.VReg])
			}
		}
		out := in + float64(cpu.Ops[op.Class].Latency)
		if op.Def >= 0 && op.Def < len(regChain) {
			regChain[op.Def] = out
		}
		if op.DefScalar != "" {
			carried[op.DefScalar] = out
		}
		longest = math.Max(longest, out)
	}
	return longest
}

package cpumodel

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/hybridsel/hybridsel/internal/gpumodel"
	"github.com/hybridsel/hybridsel/internal/ipda"
	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/regiongen"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// TestResolversAgree holds the half of the two-resolvers-one-pricer design
// that the whole-Prediction laws can only report as "Seconds differ": the
// launch the map form resolves (symbolic evaluation, ir.Count, the
// interpreted estimator and analysis) and the launch the slot programs
// resolve must be the same launch, field by field — so a slot-compile bug
// reads "site 3 Inner", not a differing time.
func TestResolversAgree(t *testing.T) {
	type launch struct {
		what string
		k    *ir.Kernel
		b    symbolic.Bindings
	}
	var launches []launch
	for _, pk := range polybench.Suite() {
		for _, mode := range []polybench.Mode{polybench.Test, polybench.Benchmark} {
			launches = append(launches, launch{fmt.Sprintf("%s (%s)", pk.Name, mode), pk.IR, pk.Bindings(mode)})
		}
	}
	for _, seed := range []int64{1, 7, 404} {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 20; i++ {
			k, s := regiongen.Generate(r, i)
			launches = append(launches, launch{fmt.Sprintf("seed %d %v", seed, s), k,
				regiongen.Bindings(int64(8 + r.Intn(2000)))})
		}
	}
	platforms := []machine.Platform{machine.PlatformP9V100(), machine.PlatformP8K80()}
	for _, l := range launches {
		f := buildFixture(t, l.k)
		slot := f.point(l.b)
		for _, plat := range platforms {
			geom := ipda.WarpGeom{WarpSize: plat.GPU.WarpSize, TransactionBytes: plat.GPU.L2.LineBytes}
			opt := ir.CountOptions{DefaultTrip: 128, BranchProb: 0.5}.ForLaunch(l.k, l.b)
			ref, err := ipda.ResolveBindings(l.k, f.an, l.b, opt, geom)
			if err != nil {
				t.Fatalf("%s: map form: %v", l.what, err)
			}
			if ref.TransferBytes, err = gpumodel.TransferBytes(l.k, l.b); err != nil {
				t.Fatalf("%s: transfer bytes: %v", l.what, err)
			}
			diff := func(field string, slot, ref any) {
				t.Helper()
				if !reflect.DeepEqual(slot, ref) {
					t.Errorf("%s on %s: %s: slot form %v, map form %v", l.what, plat.Name, field, slot, ref)
				}
			}
			diff("Iters", slot.Iters, ref.Iters)
			diff("TransferBytes", slot.TransferBytes, ref.TransferBytes)
			diff("Load", slot.Load, ref.Load)
			diff("Vectorizable", slot.Vectorizable, ref.Vectorizable)
			diff("Analyzed", slot.Analyzed, ref.Analyzed)
			if len(slot.Sites) != len(ref.Sites) {
				t.Fatalf("%s: %d sites in slot form, %d in map form", l.what, len(slot.Sites), len(ref.Sites))
			}
			sw, rw := slot.Warp(geom), ref.Warp(geom)
			diff("coalesced fraction", sw.CoalescedFrac, rw.CoalescedFrac)
			for i := range slot.Sites {
				sv, rv := reflect.ValueOf(slot.Sites[i]), reflect.ValueOf(ref.Sites[i])
				for j := 0; j < sv.NumField(); j++ {
					diff(fmt.Sprintf("site %d %s", i, sv.Type().Field(j).Name), sv.Field(j).Interface(), rv.Field(j).Interface())
				}
				diff(fmt.Sprintf("site %d warp access", i), sw.Access[i], rw.Access[i])
			}

			// What the CPU model resolves on top of the point: the work-item
			// cost at the midpoint and the static schedule's two edges, and the
			// false-sharing risk at its chunk — the latter against the
			// interpreted Result.FalseSharingRisk, not the point's copy of it.
			for _, est := range []CPIEstimator{MCAEstimator{}, FixedCPI{CPI: 0.8}} {
				c, err := Compile(CompileInput{Kernel: l.k, CPU: plat.CPU, Threads: 4, Estimator: est, Shape: f.shape})
				if err != nil {
					t.Fatalf("%s on %s: compile: %v", l.what, plat.Name, err)
				}
				mc := &mapCost{est: est, k: l.k, cpu: plat.CPU, opt: opt, b: l.b}
				for _, edge := range []float64{0, 1.0 / 8, 1 - 1.0/8} {
					got, _ := c.m.cost.cycles(slot, edge)
					want, err := mc.cycles(ref, edge)
					if err != nil {
						t.Fatalf("%s on %s: %s: %v", l.what, plat.Name, est.Name(), err)
					}
					diff(fmt.Sprintf("%s cycles per work item at edge %g", est.Name(), edge), got, want)
				}
				p, err := c.Predict(slot, 0)
				if err != nil {
					t.Fatalf("%s on %s: %v", l.what, plat.Name, err)
				}
				line := plat.CPU.L1.LineBytes
				diff(fmt.Sprintf("false-sharing risk at chunk %d", p.ChunkIters),
					slot.FalseSharingRisk(p.ChunkIters, line), f.an.FalseSharingRisk(l.b, p.ChunkIters, line))
			}
		}
	}
}

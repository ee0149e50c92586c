package offload

import (
	"fmt"

	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/sim"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// ProfileData holds lightweight profiling observations for one region.
// The paper proposes feeding the program attribute database "more
// actionable data over time" via profiling; this implements the branch
// half of that: measured conditional-take rates replace the 50% heuristic
// in subsequent model evaluations.
type ProfileData struct {
	// BranchProb is the measured probability that conditionals in the
	// region take their then-branch.
	BranchProb float64
	// Branches is the number of dynamic branch observations.
	Branches float64
	// Samples is the number of work items profiled.
	Samples int64
}

// profileEngine observes only control flow; all other events are free.
type profileEngine struct {
	taken, total float64
}

func (e *profileEngine) Op(machine.OpClass, int, float64)    {}
func (e *profileEngine) Mem(ir.AccessKind, []int64, float64) {}
func (e *profileEngine) Branch(taken, act int, scale float64) {
	e.taken += float64(taken) * scale
	e.total += float64(act) * scale
}

// ProfileBranches samples a few work items of the region (with the given
// runtime values) and records the observed branch behaviour. Subsequent
// Predict and Launch calls for the region use the measured probability
// instead of the static 50% assumption, and the region's memoized
// decisions are invalidated. Safe to call concurrently with Launch.
func (r *Region) ProfileBranches(b symbolic.Bindings) (*ProfileData, error) {
	lay, err := sim.NewLayout(r.Kernel, b)
	if err != nil {
		return nil, wrapInput(err)
	}
	eng := &profileEngine{}
	w, err := sim.NewWalker(r.Kernel, b, lay, eng, 1, 64)
	if err != nil {
		return nil, wrapInput(err)
	}
	items := w.Items()
	samples := int64(32)
	if samples > items {
		samples = items
	}
	if samples == 0 {
		return nil, fmt.Errorf("offload: region %s has no work items to profile", r.Name)
	}
	for s := int64(0); s < samples; s++ {
		id := s * items / samples
		if err := w.RunItems([]int64{id}, 1); err != nil {
			return nil, err
		}
	}
	p := &ProfileData{Branches: eng.total, Samples: samples, BranchProb: 0.5}
	if eng.total > 0 {
		p.BranchProb = eng.taken / eng.total
	}
	r.setProfile(p)
	return p, nil
}

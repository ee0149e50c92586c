package learn

import (
	"math"
	"sort"
)

// TargetState is one model's inspectable state, as served on /v1/learn
// and printed by cmd/explain.
type TargetState struct {
	Target  string `json:"target"`
	Samples uint64 `json:"samples"`
	// Confident reports the model clears the gate on its own (the
	// decision-time gate additionally falls back region -> global).
	Confident bool `json:"confident"`
	// Variance is the in-sample residual variance (-1 when the weights
	// are unsolved).
	Variance float64 `json:"variance"`
	// Weights is the solved weight vector over
	// [bias, ln pred, ln(1+iters), ln(1+bytes), coalesced frac].
	Weights []float64 `json:"weights"`
}

// RegionState is one region's models.
type RegionState struct {
	Region  string        `json:"region"`
	Targets []TargetState `json:"targets"`
}

// State is the learner's full inspectable state: configuration, verdict
// counters, and every model. Slices are sorted for deterministic
// serialization.
type State struct {
	MinSamples         int           `json:"minSamples"`
	Lambda             float64       `json:"lambda"`
	MaxVariance        float64       `json:"maxVariance"`
	Samples            uint64        `json:"samples"`
	Updates            uint64        `json:"updates"`
	LearnedVerdicts    uint64        `json:"learnedVerdicts"`
	AnalyticalVerdicts uint64        `json:"analyticalVerdicts"`
	Global             []TargetState `json:"global"`
	Regions            []RegionState `json:"regions"`
}

// State snapshots the learner for inspection (GET /v1/learn).
func (l *Learner) State() State {
	s := State{
		Samples:            l.samples.Load(),
		Updates:            l.updates.Load(),
		LearnedVerdicts:    l.learned.Load(),
		AnalyticalVerdicts: l.analytical.Load(),
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	s.MinSamples = l.cfg.MinSamples
	s.Lambda = ridgeLambda
	s.MaxVariance = gateMaxVariance
	s.Global = l.targetStatesLocked(l.global)
	s.Regions = make([]RegionState, 0, len(l.regions))
	for region, rm := range l.regions {
		s.Regions = append(s.Regions, RegionState{
			Region:  region,
			Targets: l.targetStatesLocked(rm),
		})
	}
	sort.Slice(s.Regions, func(i, j int) bool { return s.Regions[i].Region < s.Regions[j].Region })
	return s
}

func (l *Learner) targetStatesLocked(ms map[string]*model) []TargetState {
	out := make([]TargetState, 0, len(ms))
	for id, m := range ms {
		ts := TargetState{
			Target:    id,
			Samples:   m.n,
			Confident: l.passesGate(m),
			Variance:  -1,
			Weights:   append([]float64(nil), m.w[:]...),
		}
		if v := m.variance(); !math.IsInf(v, 0) {
			ts.Variance = v
		}
		out = append(out, ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target < out[j].Target })
	return out
}

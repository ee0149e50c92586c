package audit

import (
	"math"
	"sync"

	"github.com/hybridsel/hybridsel/internal/offload"
)

// DefaultAlpha is the EWMA smoothing weight of a new observation. 0.5
// converges in a handful of audits — the point of the loop is that a
// systematically biased kernel flips to the right target quickly — while
// still damping one-off noise.
const DefaultAlpha = 0.5

// changeThreshold is the relative correction-factor movement below which
// an update is not worth invalidating the region's memoized decisions.
const changeThreshold = 0.01

// Calibrator is the online half of the audit loop: a per-region,
// per-target EWMA of each model's signed log-error, applied as a
// multiplicative correction exp(ewma) to that target's predicted
// seconds. It implements offload.Calibrator, so a runtime configured
// with one consults measured feedback on every policy decision. Targets
// are keyed by registry ID, so every entry in an N-way registry
// calibrates independently.
//
// The correction is maintained in log space: ln(actual/predicted) is
// symmetric (a 2x over- and a 2x under-estimate weigh the same) and the
// resulting factor is always positive.
type Calibrator struct {
	alpha float64

	mu      sync.RWMutex
	regions map[string]*calState
	version uint64 // see Version
	// changed is the runtime's invalidation hook (OnCorrectionChange; a
	// no-op until one is installed), called without mu held.
	changed func(region string)
}

type calState struct {
	n       uint64
	targets map[string]*targetCal
}

type targetCal struct {
	n    uint64
	ewma float64
	// fac caches exp(ewma) so CorrectFeatures stays multiplication-only
	// on the decision miss path.
	fac float64
}

var _ offload.Calibrator = (*Calibrator)(nil)

// NewCalibrator builds a calibrator with the given EWMA weight; alpha
// outside (0, 1] selects DefaultAlpha.
func NewCalibrator(alpha float64) *Calibrator {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultAlpha
	}
	return &Calibrator{alpha: alpha, regions: map[string]*calState{}, changed: func(string) {}}
}

// OnCorrectionChange implements offload.Calibrator.
func (c *Calibrator) OnCorrectionChange(changed func(region string)) {
	c.mu.Lock()
	c.changed = changed
	c.mu.Unlock()
}

// ObserveVerdict implements Corrector: it folds one audit's signed
// log-errors into the region's per-target EWMAs, in measurement order (the
// features are not read). The first observation of a target seeds its
// EWMA directly (there is no prior to damp against). It reports whether
// any correction factor moved by more than 1% — in which case the region's
// memoized decisions are stale and the runtime has been told so.
func (c *Calibrator) ObserveVerdict(region string, _ offload.Features, ms []TargetMeasurement) (changed bool) {
	c.mu.Lock()
	s := c.state(region)
	for _, tm := range ms {
		t := s.target(tm.Target)
		ewma := tm.LogErr
		if t.n > 0 {
			ewma = (1-c.alpha)*t.ewma + c.alpha*tm.LogErr
		}
		if t.set(t.n+1, ewma) {
			changed = true
		}
	}
	s.n++
	c.version++
	notify := c.changed
	c.mu.Unlock()
	if changed {
		notify(region)
	}
	return changed
}

// Version advances, by one, with every mutation that changes
// SnapshotState's bytes: an observation, or a merge that changed something.
func (c *Calibrator) Version() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.version
}

// state returns the region's row, creating it. Caller holds c.mu.
func (c *Calibrator) state(region string) *calState {
	s := c.regions[region]
	if s == nil {
		s = &calState{targets: map[string]*targetCal{}}
		c.regions[region] = s
	}
	return s
}

// target returns one target's correction, creating it at the identity.
func (s *calState) target(id string) *targetCal {
	t := s.targets[id]
	if t == nil {
		t = &targetCal{fac: 1}
		s.targets[id] = t
	}
	return t
}

// set replaces the correction and reports whether its factor moved by more
// than changeThreshold — the one rule, for an observation and a merge alike,
// of when memoized decisions are stale.
func (t *targetCal) set(n uint64, ewma float64) (moved bool) {
	old := t.fac
	t.n, t.ewma, t.fac = n, ewma, math.Exp(ewma)
	return relChange(old, t.fac) > changeThreshold
}

func relChange(old, new float64) float64 {
	if old <= 0 {
		return math.Inf(1)
	}
	return math.Abs(new-old) / old
}

// CorrectFeatures implements offload.Calibrator: it scales each
// candidate's calibrated seconds by its target's current correction
// factor (identity for targets never audited). The scalar correction does
// not read the features; the verdict stays analytical.
func (c *Calibrator) CorrectFeatures(region string, _ offload.Features, cands []offload.Candidate) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if s := c.regions[region]; s != nil {
		for i := range cands {
			if t := s.targets[cands[i].Target]; t != nil {
				cands[i].CalSeconds = cands[i].PredSeconds * t.fac
			}
		}
	}
	return offload.ProvenanceAnalytical
}

// Factor implements Corrector: one target's current correction factor for
// the region and how many audits shaped it (1, 0 when never audited).
func (c *Calibrator) Factor(region, targetID string) (factor float64, n uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := c.regions[region]
	if s == nil {
		return 1, 0
	}
	t := s.targets[targetID]
	if t == nil {
		return 1, 0
	}
	return t.fac, t.n
}

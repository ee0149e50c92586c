package offload

import (
	"github.com/hybridsel/hybridsel/internal/ipda"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// Decision provenance values: which correction stage produced the
// ranking the verdict was taken from.
const (
	// ProvenanceAnalytical marks a verdict ranked by the analytical
	// models, possibly scaled by the scalar EWMA calibration — the
	// pre-learner behaviour, and the fallback whenever the learner's
	// confidence gate does not pass.
	ProvenanceAnalytical = "analytical"
	// ProvenanceLearned marks a verdict whose ranking was corrected by a
	// confident learned residual model for every candidate target.
	ProvenanceLearned = "learned"
)

// Features is the fixed per-decision feature view handed to a Calibrator:
// the launch-invariant analytical quantities a learner regresses
// residuals over, evaluated by the same evaluator the decision itself
// used. Per-target predicted seconds travel separately on each Candidate.
type Features struct {
	// Iterations is the region's full iteration-space size at the bound
	// point (the product of loop trip counts).
	Iterations int64 `json:"iterations"`
	// TransferBytes is the host-device transfer volume the GPU model
	// charges for the region.
	TransferBytes int64 `json:"transferBytes"`
	// CoalescedFrac is the IPDA stride analysis' weighted fraction of
	// coalesced global-memory accesses in [0, 1].
	CoalescedFrac float64 `json:"coalescedFrac"`
}

// Calibrator corrects analytical-model predictions with measured
// feedback. The decide path calls CorrectFeatures with the freshly
// evaluated candidates and the decision's feature vector just before
// ranking; implementations rewrite each candidate's CalSeconds in place
// (candidates arrive with CalSeconds == PredSeconds) keyed by
// Candidate.Target, and return the provenance recorded on the Decision:
// ProvenanceLearned only when a confident learned correction was applied
// to every candidate, ProvenanceAnalytical otherwise. The raw PredSeconds
// must stay untouched — traces keep the raw model output; the calibrated
// values only steer the ranking and policy. internal/audit provides the
// per-region, per-target EWMA multiplicative correction fed by shadow
// audits (it ignores the features), internal/learn the residual learner
// that falls back to it.
//
// Implementations must be safe for concurrent use from many launching
// goroutines, and cheap — CorrectFeatures sits on the decision miss path.
//
// A calibration update changes the inputs of future decisions but not of
// memoized ones. Dropping those is the corrector's own job, not its
// feeders': however its state moves (an audit, a gossip merge, a restore)
// it calls the function NewRuntime installed through OnCorrectionChange.
type Calibrator interface {
	CorrectFeatures(region string, f Features, cands []Candidate) string
	// OnCorrectionChange installs changed, which the calibrator calls —
	// holding none of its own locks — with each region whose corrections
	// moved materially, or with "" when any region's may have. A calibrator
	// serves one runtime: a second call replaces the first.
	OnCorrectionChange(changed func(region string))
}

// Features evaluates the region's decision feature vector at the bound
// point — the inputs a Calibrator is handed.
func (r *Region) Features(b symbolic.Bindings) (Features, error) {
	ev, err := r.bind(b)
	if err != nil {
		return Features{}, err
	}
	defer ev.release()
	return ev.features()
}

// warpGeom is the platform's warp geometry, the one the IPDA coalescing
// analysis resolves strides against.
func (rt *Runtime) warpGeom() ipda.WarpGeom {
	return ipda.WarpGeom{
		WarpSize:         rt.cfg.Platform.GPU.WarpSize,
		TransactionBytes: rt.cfg.Platform.GPU.L2.LineBytes,
	}
}

// InvalidateDecisions drops the region's memoized decisions so the next
// launch re-evaluates the models and re-runs the policy — for a change of
// decision inputs the runtime cannot see (a configured Calibrator reports
// its own). The execution memoization is untouched: ground truth does not
// change.
func (r *Region) InvalidateDecisions() {
	r.invalidate()
}

// invalidate is the one funnel every change of a region's decision inputs
// goes through: it drops the memoized decisions, then advances the epoch,
// so whoever reads epoch E and then decides never gets an entry the
// invalidation publishing E dropped.
func (r *Region) invalidate() {
	r.decisions.clear()
	r.rt.advanceEpoch()
}

// Epoch is the runtime's decision epoch: 1 at NewRuntime, advanced after
// every invalidation of any region's decisions. A verdict decided after
// Epoch returned E is the runtime's at E.
func (rt *Runtime) Epoch() uint64 { return rt.epoch.Load() }

// EpochAdvanced returns a channel closed at the next advance of the epoch,
// so that a caller that takes it before reading Epoch misses no advance.
func (rt *Runtime) EpochAdvanced() <-chan struct{} {
	for {
		if ch := rt.epochWait.Load(); ch != nil {
			return *ch
		}
		ch := make(chan struct{})
		if rt.epochWait.CompareAndSwap(nil, &ch) {
			return ch
		}
	}
}

// advanceEpoch moves the epoch on and wakes whoever waits for it; with
// nobody waiting it is the one atomic add.
func (rt *Runtime) advanceEpoch() {
	rt.epoch.Add(1)
	if rt.epochWait.Load() != nil {
		if ch := rt.epochWait.Swap(nil); ch != nil {
			close(*ch)
		}
	}
}

// InvalidateDecisions is Region.InvalidateDecisions by region name.
func (rt *Runtime) InvalidateDecisions(name string) error {
	r, err := rt.Region(name)
	if err != nil {
		return err
	}
	r.InvalidateDecisions()
	return nil
}

// correctionChanged is what the Calibrator is given to call: it drops the
// memoized decisions of the named region, or of every region for "". A
// name never registered here is fine: replicated calibration state covers
// every replica's regions.
func (rt *Runtime) correctionChanged(region string) {
	rt.regmu.RLock()
	defer rt.regmu.RUnlock()
	if r := rt.regions[region]; r != nil {
		r.invalidate()
	} else if region == "" {
		for _, r := range rt.regions {
			r.invalidate()
		}
	}
}

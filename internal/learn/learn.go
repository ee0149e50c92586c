// Package learn closes the gap the scalar EWMA calibration cannot: a
// deterministic, dependency-free online ridge regressor over analytical
// decision features, trained incrementally from audit ground truth.
//
// The EWMA calibrator (internal/audit) learns one multiplicative factor
// per (region, target) — a constant correction, blind to *where* in the
// binding space the model errs. The paper's headline weakness is exactly
// non-constant error: the analytical models are systematically biased
// where MCA is blind (the memory hierarchy), and that bias moves with
// problem size, transfer volume and access pattern. The learner
// regresses the residual ln(actual/predicted) on a fixed feature vector
// drawn from the compiled slot programs —
//
//	x = [1, ln(pred seconds), ln(1+iterations), ln(1+transfer bytes), coalesced fraction]
//
// — per (region, target), with a hierarchical fallback to per-target
// global weights for cold regions. The bias term is near-unregularized
// while the feature weights carry full ridge strength, so a young model
// behaves like the EWMA's mean-log-error seed and only grows
// feature-dependent corrections as evidence accumulates.
//
// Verdicts are confidence-gated: a decision is corrected by the learner
// only when every candidate target has a model past the sample-count and
// residual-variance thresholds; otherwise the whole verdict falls back
// to the EWMA-calibrated analytical ranking. The applied stage is
// recorded as Decision.Provenance (offload.ProvenanceLearned /
// ProvenanceAnalytical).
//
// Everything is deterministic: updates fold in arrival order, weights
// come from a fixed-order Gaussian elimination, and snapshot/restore
// (see snapshot.go) reproduces weights bit-for-bit — so record/replay
// traces stay byte-identical.
package learn

import (
	"math"
	"sync"

	"github.com/hybridsel/hybridsel/internal/audit"
	"github.com/hybridsel/hybridsel/internal/metrics"
	"github.com/hybridsel/hybridsel/internal/offload"
)

// NumFeatures is the fixed length of the regression feature vector:
// bias, ln(predicted seconds), ln(1+iterations), ln(1+transfer bytes),
// coalesced fraction.
const NumFeatures = 5

const (
	// defaultMinSamples is the confidence gate's sample floor when
	// Config.MinSamples is zero: a model corrects verdicts only once it
	// has absorbed this many ground-truth observations.
	defaultMinSamples = 3
	// ridgeLambda is the ridge strength on the feature weights. The
	// bias term is regularized by biasLambda instead, so a cold model
	// reduces to a mean-log-error correction rather than extrapolating
	// from under-determined feature weights. A constant, like
	// gateMaxVariance: replicas merge each other's sufficient statistics
	// and must solve them alike, so a snapshot written under other values
	// is refused (validateSnapshot).
	ridgeLambda = 1.0
	// biasLambda keeps the normal equations non-singular without
	// materially shrinking the intercept.
	biasLambda = 1e-6
	// gateMaxVariance bounds the in-sample residual variance (in squared
	// log space) a model may carry and still pass the confidence gate;
	// above it the verdict falls back to the analytical ranking.
	gateMaxVariance = 0.5
)

// changeThreshold is the relative movement of a learned correction below
// which an update is not worth invalidating memoized decisions — the
// same 1% rule the EWMA calibrator applies.
const changeThreshold = 0.01

// maxLogCorrection clamps the learned residual before exponentiation so
// a degenerate extrapolation cannot produce an overflowing multiplier.
const maxLogCorrection = 8.0

// Config parameterizes a Learner.
type Config struct {
	// Fallback, when non-nil, is the EWMA calibrator that corrects the
	// verdicts the confidence gate rejects. The learner trains it:
	// ObserveVerdict feeds it every verdict before its own models. With a
	// zero-state learner every verdict delegates here, reproducing the pure
	// EWMA behaviour bit-for-bit.
	Fallback *audit.Calibrator

	// MinSamples is the confidence gate's per-model sample floor
	// (0 selects defaultMinSamples).
	MinSamples int
}

// model is one (region, target) — or per-target global — ridge state:
// the Gram matrix and moment vector of the residual regression, with the
// solved weights cached. All mutation happens under the Learner's lock.
type model struct {
	n uint64
	// gram accumulates sum(x xT), mom sum(x t), sumT2 sum(t²) where
	// t = ln(actual/predicted) is the regression target.
	gram  [NumFeatures][NumFeatures]float64
	mom   [NumFeatures]float64
	sumT2 float64
	// w is the solved weight vector (valid when ok), and resVar the
	// in-sample residual variance under it — the confidence gate's input,
	// cached because solve is the only thing that moves it and the gate is
	// consulted per candidate per verdict.
	w      [NumFeatures]float64
	ok     bool
	resVar float64
}

// add folds one observation and re-solves the weights (a 5x5 system —
// cheap next to the ground-truth simulation that produced the sample).
func (m *model) add(x *[NumFeatures]float64, t float64) {
	for i := 0; i < NumFeatures; i++ {
		for j := 0; j < NumFeatures; j++ {
			m.gram[i][j] += x[i] * x[j]
		}
		m.mom[i] += x[i] * t
	}
	m.sumT2 += t * t
	m.n++
	m.solve()
}

// solve recomputes w — and with it ok and resVar — from the accumulated
// sums. Every path that changes the sums ends here: add, and restoreModel
// for MergeState and Restore.
func (m *model) solve() {
	m.ok = m.solveWeights()
	m.resVar = m.variance()
}

// solveWeights solves (gram + Λ) w = mom with Λ = diag(biasLambda,
// ridgeLambda, ..., ridgeLambda), by Gaussian elimination with partial
// pivoting in fixed order — deterministic for a given state, so snapshot
// restores reproduce weights bit-for-bit. It reports whether w is usable.
func (m *model) solveWeights() bool {
	var a [NumFeatures][NumFeatures + 1]float64
	for i := 0; i < NumFeatures; i++ {
		for j := 0; j < NumFeatures; j++ {
			a[i][j] = m.gram[i][j]
		}
		a[i][NumFeatures] = m.mom[i]
	}
	a[0][0] += biasLambda
	for i := 1; i < NumFeatures; i++ {
		a[i][i] += ridgeLambda
	}
	for col := 0; col < NumFeatures; col++ {
		pivot := col
		for row := col + 1; row < NumFeatures; row++ {
			if math.Abs(a[row][col]) > math.Abs(a[pivot][col]) {
				pivot = row
			}
		}
		if a[pivot][col] == 0 {
			return false
		}
		a[col], a[pivot] = a[pivot], a[col]
		for row := col + 1; row < NumFeatures; row++ {
			f := a[row][col] / a[col][col]
			for j := col; j <= NumFeatures; j++ {
				a[row][j] -= f * a[col][j]
			}
		}
	}
	for i := NumFeatures - 1; i >= 0; i-- {
		s := a[i][NumFeatures]
		for j := i + 1; j < NumFeatures; j++ {
			s -= a[i][j] * m.w[j]
		}
		m.w[i] = s / a[i][i]
	}
	for i := 0; i < NumFeatures; i++ {
		if math.IsNaN(m.w[i]) || math.IsInf(m.w[i], 0) {
			return false
		}
	}
	return true
}

// residual predicts the log-space correction w·x at a feature point.
func (m *model) residual(x *[NumFeatures]float64) float64 {
	s := 0.0
	for i := 0; i < NumFeatures; i++ {
		s += m.w[i] * x[i]
	}
	return s
}

// multiplier is the clamped multiplicative correction at a feature
// point: exp(w·x), the learned counterpart of the EWMA's exp(ewma).
func (m *model) multiplier(x *[NumFeatures]float64) float64 {
	r := m.residual(x)
	if r > maxLogCorrection {
		r = maxLogCorrection
	} else if r < -maxLogCorrection {
		r = -maxLogCorrection
	}
	return math.Exp(r)
}

// variance is the in-sample residual variance SSE/n of the current
// weights, computable from the accumulated sums alone:
// SSE = sum(t²) - 2 w·mom + wᵀ gram w. solve caches it as resVar.
func (m *model) variance() float64 {
	if m.n == 0 || !m.ok {
		return math.Inf(1)
	}
	sse := m.sumT2
	for i := 0; i < NumFeatures; i++ {
		sse -= 2 * m.w[i] * m.mom[i]
		for j := 0; j < NumFeatures; j++ {
			sse += m.w[i] * m.gram[i][j] * m.w[j]
		}
	}
	if sse < 0 {
		sse = 0 // accumulated float error on a near-perfect fit
	}
	return sse / float64(m.n)
}

// Learner is the online residual learner. It implements
// offload.Calibrator (wire as offload.Config.Calibrator) and
// audit.Corrector (wire as audit.Config.Corrector). Safe for concurrent
// use.
type Learner struct {
	cfg Config

	mu sync.RWMutex
	// global holds the per-target fallback models (keyed by registry
	// target ID); regions the per-(region, target) models.
	global  map[string]*model
	regions map[string]map[string]*model
	version uint64 // see Version
	// changed is the runtime's invalidation hook (OnCorrectionChange; a
	// no-op until one is installed), called without mu held.
	changed func(region string)

	samples    metrics.Counter
	updates    metrics.Counter
	learned    metrics.Counter
	analytical metrics.Counter
}

var (
	_ offload.Calibrator = (*Learner)(nil)
	_ audit.Corrector    = (*Learner)(nil)
)

// New builds a learner. A zero Config is valid: defaults apply, and with
// no Fallback the analytical verdicts keep their raw model ranking.
func New(cfg Config) *Learner {
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = defaultMinSamples
	}
	return &Learner{
		cfg:     cfg,
		global:  map[string]*model{},
		regions: map[string]map[string]*model{},
		changed: func(string) {},
	}
}

// OnCorrectionChange implements offload.Calibrator; the Fallback reports
// its own movements through the same function.
func (l *Learner) OnCorrectionChange(changed func(region string)) {
	l.mu.Lock()
	l.changed = changed
	l.mu.Unlock()
	if l.cfg.Fallback != nil {
		l.cfg.Fallback.OnCorrectionChange(changed)
	}
}

// featVec builds the fixed feature vector for one target's prediction at
// a decision point. predSeconds must be positive.
func featVec(predSeconds float64, f offload.Features) [NumFeatures]float64 {
	return [NumFeatures]float64{
		1,
		math.Log(predSeconds),
		math.Log1p(float64(f.Iterations)),
		math.Log1p(float64(f.TransferBytes)),
		f.CoalescedFrac,
	}
}

// passesGate reports whether one model clears the confidence gate.
func (l *Learner) passesGate(m *model) bool {
	if m == nil || !m.ok || m.n < uint64(l.cfg.MinSamples) {
		return false
	}
	return !(m.resVar > gateMaxVariance)
}

// confidentIn resolves the model that would correct target in the region
// whose models are rm (nil for a region never observed) — the region model
// when it clears the gate, else the global fallback when it does, else
// nil. Callers hold l.mu (either side).
func (l *Learner) confidentIn(rm map[string]*model, target string) *model {
	if m := rm[target]; l.passesGate(m) {
		return m
	}
	if m := l.global[target]; l.passesGate(m) {
		return m
	}
	return nil
}

// CorrectFeatures implements offload.Calibrator: when every candidate
// target has a confident model, each candidate's CalSeconds becomes
// PredSeconds times its learned multiplier and the verdict is learned;
// otherwise the whole verdict delegates to the Fallback calibrator
// (identity without one) and carries its provenance. Gating is whole-verdict:
// mixing learned and EWMA-scaled seconds inside one ranking would
// compare incommensurable corrections.
func (l *Learner) CorrectFeatures(region string, f offload.Features, cands []offload.Candidate) string {
	var buf [8]float64 // on the stack; a registry of more targets pays one allocation
	mults := buf[:]
	if len(cands) > len(buf) {
		mults = make([]float64, len(cands))
	}
	confident := len(cands) > 0
	// Of the feature vector only ln(pred) differs between candidates.
	x := featVec(1, f)
	l.mu.RLock()
	rm := l.regions[region]
	for i := range cands {
		if cands[i].PredSeconds <= 0 {
			confident = false
			break
		}
		m := l.confidentIn(rm, cands[i].Target)
		if m == nil {
			confident = false
			break
		}
		x[1] = math.Log(cands[i].PredSeconds)
		mults[i] = m.multiplier(&x)
	}
	l.mu.RUnlock()
	if !confident {
		l.analytical.Add(1)
		if l.cfg.Fallback != nil {
			return l.cfg.Fallback.CorrectFeatures(region, f, cands)
		}
		return offload.ProvenanceAnalytical
	}
	for i := range cands {
		cands[i].CalSeconds = cands[i].PredSeconds * mults[i]
	}
	l.learned.Add(1)
	return offload.ProvenanceLearned
}

// ObserveVerdict implements audit.Corrector: it trains the Fallback, then
// folds every measured target into the region's and the global models in
// slice order (deterministic for a deterministic audit stream). It reports
// whether a correction moved materially — the Fallback's, or a learned one
// at the observed point, a gate transition included — in which case the
// region's memoized decisions are stale and the runtime has been told so.
func (l *Learner) ObserveVerdict(region string, f offload.Features, ms []audit.TargetMeasurement) (changed bool) {
	if l.cfg.Fallback != nil {
		changed = l.cfg.Fallback.ObserveVerdict(region, f, ms)
	}
	moved, trained := false, false
	l.mu.Lock()
	for i := range ms {
		tm := &ms[i]
		if tm.PredSeconds <= 0 || tm.ActualSeconds <= 0 {
			continue
		}
		x := featVec(tm.PredSeconds, f)
		t := math.Log(tm.ActualSeconds / tm.PredSeconds)

		before, okBefore := l.effectiveLocked(region, tm.Target, &x)

		rm := l.regions[region]
		if rm == nil {
			rm = map[string]*model{}
			l.regions[region] = rm
		}
		m := rm[tm.Target]
		if m == nil {
			m = &model{}
			rm[tm.Target] = m
		}
		m.add(&x, t)
		g := l.global[tm.Target]
		if g == nil {
			g = &model{}
			l.global[tm.Target] = g
		}
		g.add(&x, t)
		l.samples.Add(1)
		trained = true

		after, okAfter := l.effectiveLocked(region, tm.Target, &x)
		moved = moved || okBefore != okAfter || okAfter && relChange(before, after) > changeThreshold
	}
	if trained {
		l.version++
	}
	notify := l.changed
	l.mu.Unlock()
	if moved {
		l.updates.Add(1)
		notify(region)
	}
	return changed || moved
}

// effectiveLocked evaluates the learned multiplier that would currently
// apply at a feature point (ok=false when the gate rejects — the EWMA
// fallback owns such verdicts, and its own >1% rule handles their
// invalidation).
func (l *Learner) effectiveLocked(region, target string, x *[NumFeatures]float64) (mult float64, ok bool) {
	m := l.confidentIn(l.regions[region], target)
	if m == nil {
		return 0, false
	}
	return m.multiplier(x), true
}

// Factor implements audit.Corrector: the Fallback's EWMA factor (1, 0
// without one).
func (l *Learner) Factor(region, target string) (float64, uint64) {
	if l.cfg.Fallback == nil {
		return 1, 0
	}
	return l.cfg.Fallback.Factor(region, target)
}

// Version advances, by one, with every mutation that changes
// SnapshotState's bytes: an observation that trained a model, a merge that
// changed something, a Restore to other state. (The Fallback versions its
// own state.)
func (l *Learner) Version() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.version
}

func relChange(old, new float64) float64 {
	if old <= 0 {
		return math.Inf(1)
	}
	return math.Abs(new-old) / old
}

// Multiplier returns the learned correction the learner would apply to
// one target's prediction at a feature point, and whether the verdict
// would be learned there (false: the caller should consult the EWMA
// factor instead). Used by cmd/explain and GET /v1/learn.
func (l *Learner) Multiplier(region, target string, predSeconds float64, f offload.Features) (mult float64, learned bool) {
	if predSeconds <= 0 {
		return 1, false
	}
	x := featVec(predSeconds, f)
	l.mu.RLock()
	defer l.mu.RUnlock()
	m := l.confidentIn(l.regions[region], target)
	if m == nil {
		return 1, false
	}
	return m.multiplier(&x), true
}

// Stats is a learner's aggregate state: how much audit ground truth it
// has absorbed, how many models exist (and are past the confidence
// gate), and how its verdicts split between learned and analytical
// provenance.
type Stats struct {
	// Samples counts absorbed (target, point) ground-truth observations;
	// Updates counts weight-vector recomputations that materially moved a
	// correction (the >1% invalidation rule).
	Samples uint64 `json:"samples"`
	Updates uint64 `json:"updates"`
	// LearnedVerdicts/AnalyticalVerdicts count CorrectFeatures outcomes
	// by returned provenance.
	LearnedVerdicts    uint64 `json:"learnedVerdicts"`
	AnalyticalVerdicts uint64 `json:"analyticalVerdicts"`
	// RegionModels counts per-(region, target) models; GlobalModels the
	// per-target fallbacks; ConfidentModels those past the gate.
	RegionModels    int `json:"regionModels"`
	GlobalModels    int `json:"globalModels"`
	ConfidentModels int `json:"confidentModels"`
	// MinSamples is the configured confidence-gate floor.
	MinSamples int `json:"minSamples"`
}

// RegisterMetrics declares the learner's series (hybridsel_learner_
// namespace) on s.
func (l *Learner) RegisterMetrics(s *metrics.Set) {
	s.Counter("hybridsel_learner_samples_total",
		"Ground-truth observations absorbed by the residual learner.", &l.samples)
	s.Counter("hybridsel_learner_updates_total",
		"Learner weight updates that materially moved a correction.", &l.updates)
	const verdicts = "Corrected verdicts by provenance."
	s.Counter("hybridsel_learner_verdicts_total", verdicts, &l.learned,
		"provenance", offload.ProvenanceLearned)
	s.Counter("hybridsel_learner_verdicts_total", verdicts, &l.analytical,
		"provenance", offload.ProvenanceAnalytical)
	regionModels := s.Rows("hybridsel_learner_region_models", "gauge", "Per-(region, target) residual models.")
	globalModels := s.Rows("hybridsel_learner_global_models", "gauge", "Per-target global fallback models.")
	confident := s.Rows("hybridsel_learner_confident_models", "gauge", "Residual models past the confidence gate.")
	minSamples := s.Rows("hybridsel_learner_min_samples", "gauge", "Configured confidence-gate sample floor.")
	s.Collect(func() { // one walk of the model tables per scrape
		st := l.Stats()
		regionModels(float64(st.RegionModels))
		globalModels(float64(st.GlobalModels))
		confident(float64(st.ConfidentModels))
		minSamples(float64(st.MinSamples))
	})
}

// Stats snapshots the learner's aggregate state.
func (l *Learner) Stats() Stats {
	s := Stats{
		Samples:            l.samples.Load(),
		Updates:            l.updates.Load(),
		LearnedVerdicts:    l.learned.Load(),
		AnalyticalVerdicts: l.analytical.Load(),
		MinSamples:         l.cfg.MinSamples,
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	s.GlobalModels = len(l.global)
	for _, m := range l.global {
		if l.passesGate(m) {
			s.ConfidentModels++
		}
	}
	for _, rm := range l.regions {
		s.RegionModels += len(rm)
		for _, m := range rm {
			if l.passesGate(m) {
				s.ConfidentModels++
			}
		}
	}
	return s
}

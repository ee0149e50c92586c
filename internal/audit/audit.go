// Package audit closes the loop between the runtime's predictions and
// ground truth: a shadow auditor samples completed decisions, re-runs the
// ground-truth simulators for *both* targets on the sampled points, and
// keeps per-region accuracy accounting — mispredict counts, decision
// regret (time lost to the wrong target), and signed log-error
// distributions for the CPU and GPU analytical models.
//
// The paper measures actual-vs-predicted error offline (Figures 6/7) and
// stops there; its headline weakness is prediction error concentrated in
// cache-sensitive kernels. This package feeds that error back into the
// selector: an online Calibrator maintains a per-region EWMA
// multiplicative correction on each model's predicted time, which the
// offload runtime consults through the offload.Config.Calibrator hook.
// A region whose model is systematically biased flips to the right
// target after a handful of audits instead of mispredicting forever.
//
// Serving-path guarantees:
//
//   - Sampling is deterministic: a decision is selected purely by the
//     hash of its (region, BindingsKey) identity against the configured
//     rate, so the same trace replayed at the same rate audits the same
//     points — byte-identical verdict records under trace.Replay.
//   - Audited keys are tracked in a bounded recently-audited set, so a
//     hot key is not re-simulated on every launch.
//   - With Workers > 0 the audits run on background goroutines behind a
//     bounded queue; Offer never blocks — when the queue is full the
//     sample is dropped and counted, never the request stalled.
package audit

import (
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/offload"
)

// DefaultQueueDepth bounds the async audit queue (Workers > 0). When the
// queue is full, further samples are dropped and counted — the audit loop
// must never apply backpressure to the serving path.
const DefaultQueueDepth = 256

// recentKeys bounds the recently-audited key set: a key is not re-audited
// while it remains in the set, so hot keys are audited once per eviction
// cycle rather than once per launch.
const recentKeys = 4096

// Config parameterizes an Auditor.
type Config struct {
	// Runtime supplies the ground-truth executions (Region.Measure,
	// memoized). Required.
	Runtime *offload.Runtime

	// Rate is the sampling probability over distinct (region, bindings)
	// keys: a key is audited iff hash(key) < Rate. <= 0 disables
	// auditing entirely; >= 1 audits every distinct key.
	Rate float64

	// Workers is the number of background audit goroutines. 0 runs every
	// audit inline on the offering goroutine — the deterministic mode
	// used by replays, studies and tests; a serving daemon wants >= 1 so
	// ground-truth simulation never runs on the request path.
	Workers int

	// Corrector, when non-nil, is trained by every verdict and in turn
	// supplies the runtime's prediction corrections (it tells the runtime
	// itself when an update made memoized decisions stale; see
	// offload.Calibrator) and the report's factor column.
	Corrector Corrector

	// OnVerdict, when non-nil, is invoked with every completed verdict
	// (after accounting and correction) — e.g. trace recording. Inline
	// mode calls it on the offering goroutine; async mode from worker
	// goroutines, so it must be safe for concurrent use.
	OnVerdict func(Verdict)
}

// Corrector is what an audit trains: the EWMA Calibrator, or a residual
// learner over one (internal/learn). ObserveVerdict folds one verdict —
// the decision's feature vector and every target's measurement, in
// registry order — and reports whether a correction moved materially;
// Factor is one target's EWMA factor and the audits that shaped it.
// Implementations must be safe for concurrent use: async auditors call
// from worker goroutines. The interface lives here (not in internal/learn)
// so the learner can depend on the audit types without a package cycle.
type Corrector interface {
	ObserveVerdict(region string, f offload.Features, ms []TargetMeasurement) (changed bool)
	Factor(region, target string) (factor float64, n uint64)
}

// TargetMeasurement is one registered target's audit of a sampled point:
// the model's raw prediction against the ground-truth simulation.
type TargetMeasurement struct {
	// Target is the registry target ID.
	Target        string  `json:"target"`
	PredSeconds   float64 `json:"predSeconds"`
	ActualSeconds float64 `json:"actualSeconds"`
	// LogErr is the signed log-error ln(actual/predicted) (positive =
	// the model underestimated).
	LogErr float64 `json:"logErr"`

	// base marks the first-registered measurement of its kind — the pair a
	// trace record carries, by Decision.BasePair's rule. The auditor sets
	// it, since it holds the registry.
	base bool
	kind offload.TargetKind
}

// Verdict is the outcome of auditing one decision: every registered
// target measured, the chosen target judged against the measured-fastest
// one.
type Verdict struct {
	Region   string
	Bindings map[string]int64
	// ChosenID is the registry ID of the target the audited decision
	// dispatched (or would have); BestID that of the measured-fastest
	// target. In an N-way registry two targets of one kind are different
	// verdicts, so the comparison is by ID.
	ChosenID string
	BestID   string
	// Targets holds every registered target's measurement, in registry
	// order: the raw model output as the decision recorded it against the
	// ground-truth (simulated) time.
	Targets []TargetMeasurement
	// Mispredict reports ChosenID != BestID; RegretSeconds is the time
	// the wrong choice cost (actual chosen minus actual best, 0 when
	// right).
	Mispredict    bool
	RegretSeconds float64
}

// Auditor samples completed decisions and audits them against ground
// truth. Create with New; wire into a runtime with Observer (or call
// Offer from an existing observer); stop with Close.
type Auditor struct {
	cfg Config

	// sendMu guards queue sends against Close: Offer holds the read
	// side, Close the write side while latching closed.
	sendMu sync.RWMutex
	closed bool
	queue  chan offload.Decision
	wg     sync.WaitGroup

	dropped   atomic.Uint64
	execErrs  atomic.Uint64
	offered   atomic.Uint64
	skippedNS atomic.Uint64 // offers skipped: not sampled or recently audited

	mu          sync.Mutex
	recent      *keyLRU
	regions     map[string]*regionStats
	samples     uint64
	mispredicts uint64
	regretSec   float64
}

// New builds an auditor and starts its workers (if any). cfg.Runtime is
// required.
func New(cfg Config) *Auditor { return newAuditor(cfg, DefaultQueueDepth) }

func newAuditor(cfg Config, queueDepth int) *Auditor {
	if cfg.Runtime == nil {
		panic("audit: Config.Runtime is required")
	}
	a := &Auditor{
		cfg:     cfg,
		recent:  newKeyLRU(recentKeys),
		regions: map[string]*regionStats{},
	}
	if cfg.Workers > 0 {
		a.queue = make(chan offload.Decision, queueDepth)
		for i := 0; i < cfg.Workers; i++ {
			a.wg.Add(1)
			go func() {
				defer a.wg.Done()
				for d := range a.queue {
					a.audit(d)
				}
			}()
		}
	}
	return a
}

// Observer adapts the auditor to the runtime's observer hook
// (Runtime.SetObserver), chaining to next (may be nil) — so one runtime
// can both trace and audit its decisions.
func (a *Auditor) Observer(next func(offload.Decision)) func(offload.Decision) {
	return func(d offload.Decision) {
		if next != nil {
			next(d)
		}
		a.Offer(d)
	}
}

// Offer submits a completed decision for auditing. It never blocks: the
// decision is hashed against the sampling rate, deduplicated against the
// recently-audited set, and then either audited inline (Workers == 0) or
// handed to the bounded queue — dropped, and counted, if the queue is
// full or the auditor is closed.
func (a *Auditor) Offer(d offload.Decision) {
	// Only single-target decisions have a counterfactual to audit:
	// oracle and split launches already execute both targets.
	if d.Target == offload.KindSplit {
		return
	}
	if d.Policy == offload.Oracle {
		return
	}
	a.offered.Add(1)
	key := d.Region + "\x00" + attrdb.BindingsKey(d.Bindings)
	if !Sampled(key, a.cfg.Rate) {
		a.skippedNS.Add(1)
		return
	}
	a.mu.Lock()
	fresh := a.recent.add(key)
	a.mu.Unlock()
	if !fresh {
		a.skippedNS.Add(1)
		return
	}
	if a.cfg.Workers <= 0 {
		a.audit(d)
		return
	}
	a.sendMu.RLock()
	if a.closed {
		a.sendMu.RUnlock()
		a.drop(key)
		return
	}
	select {
	case a.queue <- d:
		a.sendMu.RUnlock()
	default:
		a.sendMu.RUnlock()
		a.drop(key)
	}
}

// drop counts a discarded sample and forgets its key so a later offer of
// the same point can be audited once there is queue room again.
func (a *Auditor) drop(key string) {
	a.dropped.Add(1)
	a.mu.Lock()
	a.recent.remove(key)
	a.mu.Unlock()
}

// Sampled reports whether a (region, bindings) audit key falls inside the
// sampling rate. The choice is a pure function of the key — no RNG, no
// clock — so identical traffic is audited identically across runs and
// replays.
func Sampled(key string, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return float64(h.Sum64())/float64(math.MaxUint64) < rate
}

// audit measures every registered target for the decision and folds the
// verdict into the accounting, the corrector, and the OnVerdict hook.
func (a *Auditor) audit(d offload.Decision) {
	region, err := a.cfg.Runtime.Region(d.Region)
	if err != nil {
		a.execErrs.Add(1)
		return
	}
	ms, best, err := region.Measure(d.Bindings)
	if err != nil {
		a.execErrs.Add(1)
		return
	}

	// Raw predictions by target ID, from the decision's ranked candidate
	// list (PredSeconds is the uncalibrated model output).
	preds := make(map[string]float64, len(d.Candidates))
	for _, c := range d.Candidates {
		preds[c.Target] = c.PredSeconds
	}

	v := Verdict{
		Region:   d.Region,
		Bindings: d.Bindings,
		ChosenID: d.TargetID,
		Targets:  make([]TargetMeasurement, len(ms)),
	}
	chosen := -1
	var seen [2]bool // per registrable kind: a measurement already marked base
	for i, m := range ms {
		v.Targets[i] = TargetMeasurement{
			Target:        m.Target,
			PredSeconds:   preds[m.Target],
			ActualSeconds: m.Seconds,
			LogErr:        signedLogErr(m.Seconds, preds[m.Target]),
			base:          !seen[m.Kind],
			kind:          m.Kind,
		}
		seen[m.Kind] = true
		if m.Target == v.ChosenID {
			chosen = i
		}
	}
	if chosen < 0 {
		// The decision's target is not in the registry (stale decision
		// across a reconfiguration) — nothing sound to judge.
		a.execErrs.Add(1)
		return
	}
	v.BestID = ms[best].Target
	v.Mispredict = v.ChosenID != v.BestID
	if v.Mispredict {
		v.RegretSeconds = v.Targets[chosen].ActualSeconds - v.Targets[best].ActualSeconds
	}

	a.mu.Lock()
	rs := a.regions[v.Region]
	if rs == nil {
		rs = &regionStats{}
		a.regions[v.Region] = rs
	}
	rs.observe(v)
	a.samples++
	if v.Mispredict {
		a.mispredicts++
	}
	a.regretSec += v.RegretSeconds
	a.mu.Unlock()

	if a.cfg.Corrector != nil {
		// A feature-evaluation failure only skips training — the audit
		// accounting above already landed.
		if f, err := region.Features(d.Bindings); err == nil {
			a.cfg.Corrector.ObserveVerdict(v.Region, f, v.Targets)
		}
	}
	if a.cfg.OnVerdict != nil {
		a.cfg.OnVerdict(v)
	}
}

// signedLogErr returns ln(actual/predicted), 0 when either side is
// non-positive (a degenerate model output must not poison the EWMA).
func signedLogErr(actual, predicted float64) float64 {
	if actual <= 0 || predicted <= 0 {
		return 0
	}
	return math.Log(actual / predicted)
}

// Close stops accepting samples, drains the queue, and waits for the
// workers. Safe to call more than once; a closed auditor's Offer counts
// drops instead of auditing.
func (a *Auditor) Close() {
	a.sendMu.Lock()
	if a.closed {
		a.sendMu.Unlock()
		return
	}
	a.closed = true
	if a.queue != nil {
		close(a.queue)
	}
	a.sendMu.Unlock()
	a.wg.Wait()
}

// keyLRU is a bounded set of recently-audited keys with LRU eviction,
// guarded by the Auditor's lock.
type keyLRU struct {
	capacity int
	order    []string // ring buffer of insertion order
	head     int
	index    map[string]struct{}
}

func newKeyLRU(capacity int) *keyLRU {
	return &keyLRU{
		capacity: capacity,
		order:    make([]string, 0, capacity),
		index:    make(map[string]struct{}, capacity),
	}
}

// add inserts key, evicting the oldest entry when full. It reports
// whether the key was absent (fresh = should be audited).
func (l *keyLRU) add(key string) bool {
	if _, ok := l.index[key]; ok {
		return false
	}
	if len(l.order) < l.capacity {
		l.order = append(l.order, key)
	} else {
		delete(l.index, l.order[l.head])
		l.order[l.head] = key
		l.head = (l.head + 1) % l.capacity
	}
	l.index[key] = struct{}{}
	return true
}

// remove forgets a key (used when its queued audit was dropped). The ring
// slot keeps the stale string until overwritten; add treats it as absent
// once it leaves the index.
func (l *keyLRU) remove(key string) {
	delete(l.index, key)
}

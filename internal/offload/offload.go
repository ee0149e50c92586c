// Package offload implements the paper's compiler/runtime framework for
// automatic target selection (Figure 2) as a concurrent decision service.
//
// Register plays the compiler role: it outlines a target region (an IR
// kernel), generates the "code versions" (one execution path per
// registered target), runs the static analyses, stores their results in
// the Program Attribute Database and specializes every target's
// analytical model to the region as a slot program — a region the
// specializer cannot take fails with ErrNotCompilable. It returns a
// *Region handle whose Launch plays the OpenMP runtime role: on reaching
// a target region it binds the runtime values, completes the models,
// picks the target with the lowest predicted time — solving the stored
// equations, so decision time is negligible — and dispatches execution to
// the chosen processor (the ground-truth simulators standing in for the
// physical machines).
//
// Targets are named by registry ID ("cpu/base", "gpu/prev", ...); a
// target's kind (TargetKind: cpu, gpu, or split for a cooperative
// verdict) is a projection of the chosen ID, not a second vocabulary.
// There is one decide body: it runs over an evaluator of the bound launch
// point, and the slot programs are the evaluator of every launch — a
// bindings map is projected onto the region's parameters, names beyond them
// ignored and a missing one refused with ErrUnboundSymbol (evaluator.go has
// the map form the in-package tests hold the programs to).
//
// The runtime is built for heavy concurrent traffic:
//
//   - The region registry sits behind a read/write lock and every region
//     carries its own lock and caches, so launches on different regions
//     never contend.
//   - Model evaluations are memoized per (region, canonical bindings) in
//     a bounded LRU decision cache: repeated launches with the same trip
//     counts skip both analytical models entirely.
//   - Ground-truth executions are memoized per (region, target,
//     bindings, fraction), as experiments launch the same region
//     repeatedly under different policies.
//   - Every stage is instrumented with lock-free counters and a
//     model-evaluation latency histogram, exported via Metrics().
//   - Nothing is retained per launch: a caller that wants a decision
//     log installs an observer (SetObserver), which sees every completed
//     Decision.
//
// Policies reproduce the paper's experimental configurations (see
// policy.go): the compiler default of always offloading, the model-guided
// selector, the host-only baseline, an oracle that runs every target and
// keeps the fastest (the upper bound on any selector), and a cooperative
// CPU+GPU split.
package offload

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/ipda"
	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/sim"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// defaultDecisionCacheSize bounds each region's decision cache unless the
// Config overrides it.
const defaultDecisionCacheSize = 1024

// Config parameterizes a Runtime.
type Config struct {
	Platform machine.Platform
	// Threads is the host OMP thread count (0 = all hardware threads).
	Threads int
	// Policy selects the target per launch (the zero value is ModelGuided).
	Policy Policy

	// Targets is the execution-target registry the runtime ranks over.
	// nil selects the classic pair derived from Platform and Threads —
	// the configuration whose ranked top-1 is bit-for-bit the historical
	// binary verdict. The registry must not be mutated after NewRuntime
	// (Register compiles per-target decision programs against it).
	Targets *Registry

	// DecisionCacheSize bounds each region's memoized-decision LRU (the
	// number of distinct binding sets cached per region). 0 selects the
	// default (1024); a negative value disables decision caching.
	DecisionCacheSize int

	// Calibrator, when non-nil, adjusts the model predictions with
	// measured feedback before every policy decision (the online half of
	// the shadow-audit loop, see internal/audit). It must be safe for
	// concurrent use and cheap: decide consults it on every cache miss.
	// Candidate.PredSeconds always carries the raw model output so traces
	// stay comparable across calibration states; the calibrated CalSeconds
	// only steer the ranking and policy.
	Calibrator Calibrator

	// Simulation fidelity knobs (defaults applied by the simulators).
	CPUSim sim.CPUConfig
	GPUSim sim.GPUConfig
}

// Region is one registered target region with its generated versions,
// stored attributes, and per-region caches. The handle — created by
// Runtime.Register, looked up by Runtime.Region — is how a region is
// launched, decided, predicted, measured and profiled.
type Region struct {
	Name     string
	Kernel   *ir.Kernel
	Attrs    *attrdb.RegionAttrs
	Analysis *ipda.Result

	rt *Runtime

	// compiled holds the region's decision program, specialized at
	// Register time.
	compiled *compiledModels

	// mu guards the per-region mutable state below (the decision cache
	// carries its own sharded locks); launches on different regions take
	// different locks and never contend.
	mu      sync.Mutex
	profile *ProfileData
	exec    map[string]float64

	decisions *decisionCache
}

// Decision records one launch or decide-only call, as handed to the
// observer and returned in the Outcome.
type Decision struct {
	Region   string
	Bindings symbolic.Bindings
	Policy   Policy
	// TargetID is the chosen target's registry ID ("cpu/base",
	// "gpu/prev", ..., or TargetIDSplit); Target is its kind (KindSplit
	// for a cooperative split).
	Target   TargetKind
	TargetID string

	// Candidates is the full ranked verdict: every registered target
	// ascending by calibrated predicted seconds (ties in registration
	// order). The slice is owned by the Outcome the decision was made
	// into: DecideInto and DecideValsInto reuse its storage, so it is valid
	// until the next decide into the Outcome; an observer gets a copy of
	// its own.
	Candidates []Candidate

	// SplitFraction is the host share of the iteration space chosen by
	// a split decision (0 when not splitting).
	SplitFraction float64
	// CacheHit reports that the decision was served from the memoized
	// decision cache (no model evaluation).
	CacheHit bool
	// Provenance records which correction stage produced the ranking:
	// ProvenanceAnalytical (models + EWMA calibration, the default) or
	// ProvenanceLearned (a confident learned residual correction by the
	// configured Calibrator).
	Provenance string
	// ActualSeconds is the executed (simulated) time of the chosen
	// target (for Oracle, of the fastest one).
	ActualSeconds    float64
	DecisionOverhead time.Duration

	// targetIdx is the chosen target's registry index (Registry.Len(), the
	// pseudo-target's dispatch slot, for a split),
	// carried so dispatch accounting avoids an ID lookup.
	targetIdx int
}

// BasePair projects the ranked verdict onto the paper's binary question:
// the raw PredSeconds of the first-registered candidate of each kind, 0 for
// a kind the registry lacks. It is for the readers that keep a pair-shaped
// output (/v1/decide, the trace format, the command-line tools).
func (d *Decision) BasePair() (cpuSec, gpuSec float64) {
	first := [2]int{-1, -1} // per kind (KindCPU, KindGPU): the lowest registration order seen
	var sec [2]float64
	for _, c := range d.Candidates {
		if k := c.Kind; k <= KindGPU && (first[k] < 0 || c.order < first[k]) {
			first[k], sec[k] = c.order, c.PredSeconds
		}
	}
	return sec[KindCPU], sec[KindGPU]
}

// Outcome is what Launch returns.
type Outcome struct {
	Decision
}

// Runtime is the offloading runtime. Registration is typically performed
// up front (the compiler role); a Region's Launch, Decide, PredictTargets
// and Measure are safe for arbitrary concurrent use, including
// concurrently with Register and ProfileBranches.
type Runtime struct {
	cfg Config

	// targets is the resolved registry (Config.Targets, or the classic
	// pair derived from the platform), with CPU team sizes normalized.
	targets *Registry

	// obs is the observer hook SetObserver installs (atomically, so wiring
	// an observer that itself needs the constructed runtime — e.g. a
	// shadow auditor — does not race with in-flight launches).
	obs atomic.Pointer[func(Decision)]

	// dispatchID counts completed launches per registry target, indexed
	// by registry order with one trailing slot for the split
	// pseudo-target.
	dispatchID []atomic.Uint64

	// mapEvalOnly prices every launch with the map-form evaluator. Only
	// the in-package tests set it, to build the reference the slot
	// programs are compared against.
	mapEvalOnly bool

	regmu   sync.RWMutex
	regions map[string]*Region
	db      *attrdb.DB

	// epoch counts invalidations (Epoch), and epochWait is the channel
	// EpochAdvanced hands out, made when first asked for and closed by the
	// next advance.
	epoch     atomic.Uint64
	epochWait atomic.Pointer[chan struct{}]

	met counters
}

// NewRuntime builds a runtime for the platform.
func NewRuntime(cfg Config) *Runtime {
	if cfg.Threads <= 0 || cfg.Threads > cfg.Platform.CPU.Threads() {
		cfg.Threads = cfg.Platform.CPU.Threads()
	}
	if cfg.DecisionCacheSize == 0 {
		cfg.DecisionCacheSize = defaultDecisionCacheSize
	}
	reg := cfg.Targets
	if reg == nil || reg.Len() == 0 {
		reg = ClassicPair(cfg.Platform, cfg.Threads)
	} else {
		reg = reg.withResolvedThreads()
	}
	rt := &Runtime{
		cfg:        cfg,
		targets:    reg,
		dispatchID: make([]atomic.Uint64, reg.Len()+1),
		db:         attrdb.New(),
		regions:    map[string]*Region{},
	}
	rt.epoch.Store(1)
	if cfg.Calibrator != nil {
		cfg.Calibrator.OnCorrectionChange(rt.correctionChanged)
	}
	return rt
}

// Targets returns the runtime's resolved target registry.
func (rt *Runtime) Targets() *Registry { return rt.targets }

// SetObserver installs fn as the decision observer, replacing any
// earlier one: fn is invoked synchronously with every completed Decision —
// after Launch dispatches and after each decide-only call. It runs on the
// launching goroutine and must be safe for concurrent use and cheap (trace
// recorders buffer; anything slow belongs behind the observer's own
// queue). The swap is atomic with respect to concurrent launches, so an
// observer that holds the runtime (the shadow auditor) is wired after
// NewRuntime. A nil fn removes the hook.
func (rt *Runtime) SetObserver(fn func(Decision)) {
	if fn == nil {
		rt.obs.Store(nil)
		return
	}
	rt.obs.Store(&fn)
}

// Config returns the runtime's configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// DB exposes the Program Attribute Database (e.g. for serialization).
func (rt *Runtime) DB() *attrdb.DB { return rt.db }

// Register outlines a target region: validates the kernel, runs the
// static analyses, specializes every target's model (the compiler role:
// per-launch evaluations become slot-vector evaluations), stores the
// attribute record, and returns the region handle for lookup-free
// launches. A kernel the specializer rejects — an expression the
// parameters alone do not resolve — fails with ErrNotCompilable and
// leaves nothing registered.
func (rt *Runtime) Register(k *ir.Kernel) (*Region, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	an, err := ipda.Analyze(k, ir.DefaultCountOptions())
	if err != nil {
		return nil, err
	}
	r := &Region{
		Name:     k.Name,
		Kernel:   k,
		Attrs:    attrdb.Build(an),
		Analysis: an,
		rt:       rt,
		exec:     map[string]float64{},
	}
	if r.compiled, err = compileRegion(r); err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrNotCompilable, k.Name, err)
	}
	r.decisions = newDecisionCache(rt.cfg.DecisionCacheSize, r.compiled.layout.Len(), rt.targets.Len())
	rt.regmu.Lock()
	defer rt.regmu.Unlock()
	if _, ok := rt.regions[k.Name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateRegion, k.Name)
	}
	rt.regions[k.Name] = r
	rt.db.Put(r.Attrs)
	return r, nil
}

// Region returns a registered region handle by name.
func (rt *Runtime) Region(name string) (*Region, error) {
	rt.regmu.RLock()
	r, ok := rt.regions[name]
	rt.regmu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownRegion, name, rt.Regions())
	}
	return r, nil
}

// Regions returns the registered region names, sorted.
func (rt *Runtime) Regions() []string {
	rt.regmu.RLock()
	names := make([]string, 0, len(rt.regions))
	for k := range rt.regions {
		names = append(names, k)
	}
	rt.regmu.RUnlock()
	sort.Strings(names)
	return names
}

// Metrics returns a point-in-time snapshot of the runtime's
// instrumentation: launch and per-target dispatch counts, decision- and
// execution-cache accounting, and the model-evaluation latency histogram.
func (rt *Runtime) Metrics() Metrics {
	m := Metrics{
		Launches:               rt.met.launches.Load(),
		Decides:                rt.met.decides.Load(),
		Predictions:            rt.met.predictions.Load(),
		CompiledModelEvals:     rt.met.compiledEvals.Load(),
		DecisionCacheHits:      rt.met.decisionHits.Load(),
		DecisionCacheMisses:    rt.met.decisionMisses.Load(),
		DecisionCacheEvictions: rt.met.decisionEvictions.Load(),
		DecisionCacheStale:     rt.met.decisionStale.Load(),
		ExecCacheHits:          rt.met.execHits.Load(),
		ExecCacheMisses:        rt.met.execMisses.Load(),
		ModelEval:              rt.met.modelEval.Snapshot(),
		DispatchTargets:        make(map[string]uint64),
	}
	for i := range rt.dispatchID {
		if n := rt.dispatchID[i].Load(); n != 0 {
			id, _ := rt.dispatchTarget(i)
			m.DispatchTargets[id] = n
		}
	}
	m.Regions, m.DecisionCacheSize = rt.regionGauges()
	return m
}

// regionGauges walks the region table for the values that are states
// rather than counts: regions registered, and the live decision-cache
// entries across all of them.
func (rt *Runtime) regionGauges() (regions, cacheEntries int) {
	rt.regmu.RLock()
	defer rt.regmu.RUnlock()
	for _, r := range rt.regions {
		cacheEntries += r.decisions.len()
	}
	return len(rt.regions), cacheEntries
}

// dispatchTarget names slot i of dispatchID: a registry target's ID and
// kind, or the split pseudo-target in the last slot.
func (rt *Runtime) dispatchTarget(i int) (string, TargetKind) {
	if i == rt.targets.Len() {
		return TargetIDSplit, KindSplit
	}
	return rt.targets.specs[i].ID, rt.targets.specs[i].Kind
}

// ------------------------------------------------------ region methods --

// Profile returns the region's recorded profiling observations (nil until
// ProfileRegion has run).
func (r *Region) Profile() *ProfileData {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.profile
}

// branchProb returns the region's effective branch probability: measured
// when a profile exists, the paper's 50% heuristic otherwise.
func (r *Region) branchProb() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.profile != nil {
		return r.profile.BranchProb
	}
	return 0.5
}

// setProfile installs profiling observations and invalidates the memoized
// decisions, whose model inputs just changed.
func (r *Region) setProfile(p *ProfileData) {
	r.mu.Lock()
	r.profile = p
	r.invalidate()
	r.mu.Unlock()
}

// evalAll runs the analytical model of every registered target for the
// full iteration space, in registry order, recording one model-pass
// evaluation in the latency histogram.
func (r *Region) evalAll(ev evaluator) ([]float64, error) {
	start := time.Now()
	preds, err := ev.predictAll()
	if err != nil {
		return nil, err
	}
	r.rt.met.predictions.Add(1)
	r.rt.met.modelEval.Observe(time.Since(start))
	return preds, nil
}

// appendCandidates appends the registry-ordered candidate list over the
// per-target raw (preds) and calibrated (cals) seconds to dst, growing it
// at most once.
func (rt *Runtime) appendCandidates(dst []Candidate, preds, cals []float64) []Candidate {
	dst = slices.Grow(dst, len(rt.targets.specs))
	for i := range rt.targets.specs {
		sp := &rt.targets.specs[i]
		dst = append(dst, Candidate{Target: sp.ID, Kind: sp.Kind,
			PredSeconds: preds[i], CalSeconds: cals[i], order: i})
	}
	return dst
}

// setChosen fills the decision's chosen-target fields from a registry
// index (Registry.Len() for a cooperative split).
func (rt *Runtime) setChosen(d *Decision, idx int) {
	d.targetIdx = idx
	d.TargetID, d.Target = rt.dispatchTarget(idx)
}

// selectTarget is decide's selection stage over freshly built
// registry-ordered candidates: calibrate, rank, and pick by the policy —
// the top of the ranking, the best of one kind, or a planned split. It
// fills the decision's verdict fields (including provenance); the ranked
// slice lands in d.Candidates for memoization. The feature vector is
// evaluated only when a Calibrator is configured.
func (r *Region) selectTarget(d *Decision, cands []Candidate, ev evaluator) error {
	rt := r.rt
	d.Provenance = ProvenanceAnalytical
	if cal := rt.cfg.Calibrator; cal != nil {
		f, err := ev.features()
		if err != nil {
			return err
		}
		d.Provenance = cal.CorrectFeatures(r.Name, f, cands)
	}
	// The split planner compares against the calibrated base pair;
	// capture before ranking permutes the slice.
	cpu, gpu := rt.targets.baseCPU, rt.targets.baseGPU
	var calCPU, calGPU float64
	if cpu >= 0 {
		calCPU = cands[cpu].CalSeconds
	}
	if gpu >= 0 {
		calGPU = cands[gpu].CalSeconds
	}
	rankCandidates(cands)
	d.Candidates = cands

	i := 0 // the pick, as an index into the ranking
	switch d.Policy {
	case AlwaysGPU:
		i = firstOfKind(cands, KindGPU)
	case AlwaysCPU:
		i = firstOfKind(cands, KindCPU)
	case Split:
		if cpu >= 0 && gpu >= 0 {
			idx, f, err := r.planSplit(ev, calCPU, calGPU)
			if err != nil {
				return err
			}
			rt.setChosen(d, idx)
			d.SplitFraction = f
			return nil
		}
	}
	rt.setChosen(d, cands[i].order)
	return nil
}

// PredictTargets ranks every registered target's raw model seconds at b —
// ascending PredSeconds, ties in registration order, with CalSeconds ==
// PredSeconds; calibration applies at decision time, not here. A memoized
// decision's seconds are read from the decision cache; otherwise the models
// are evaluated and nothing is stored, so only a decision fills the cache.
// Neither touches the hit/miss counters. The slice is the caller's to keep.
func (r *Region) PredictTargets(b symbolic.Bindings) ([]Candidate, error) {
	ev, err := r.bind(b)
	if err != nil {
		return nil, err
	}
	defer ev.release()
	_, preds, _, ok := ev.lookup()
	if !ok {
		if preds, err = r.evalAll(ev); err != nil {
			return nil, err
		}
	}
	cands := r.rt.appendCandidates(nil, preds, preds)
	rankCandidates(cands)
	return cands, nil
}

// execKey builds the memoization key for a ground-truth execution from a
// pre-canonicalized bindings key (avoiding a second canonicalization on
// the hot launch path).
func execKey(targetID, bkey string, frac float64) string {
	buf := make([]byte, 0, len(targetID)+len(bkey)+16)
	buf = append(buf, targetID...)
	buf = append(buf, "/f="...)
	buf = strconv.AppendFloat(buf, frac, 'f', 4, 64)
	buf = append(buf, '/')
	buf = append(buf, bkey...)
	return string(buf)
}

// Measurement is one registered target's ground truth at a launch point:
// the simulated seconds of the whole iteration space on it.
type Measurement struct {
	Target  string
	Kind    TargetKind
	Seconds float64
}

// Measure runs the region on every registered target under b (ground
// truth, memoized per target and point) and returns the measurements in
// registry order with the index of the fastest. It is the one reading of
// ground truth — the oracle policy, the shadow auditor and the studies all
// take theirs here — and holds the oracle's rule: a strictly faster target
// wins, so a tie stays on the first registered.
func (r *Region) Measure(b symbolic.Bindings) (ms []Measurement, fastest int, err error) {
	ev, err := r.bind(b)
	if err != nil {
		return nil, 0, err
	}
	key := ev.key()
	ev.release()
	return r.measure(b, key)
}

// measure is Measure over the point's canonical bindings key.
func (r *Region) measure(b symbolic.Bindings, key string) (ms []Measurement, fastest int, err error) {
	specs := r.rt.targets.specs
	ms = make([]Measurement, len(specs))
	for i := range specs {
		sp := &specs[i]
		sec, err := r.execute(sp, b, 1, key)
		if err != nil {
			return nil, 0, err
		}
		ms[i] = Measurement{Target: sp.ID, Kind: sp.Kind, Seconds: sec}
		if sec < ms[fastest].Seconds {
			fastest = i
		}
	}
	return ms, fastest, nil
}

// execute runs a leading (CPU) or trailing (GPU) fraction of the region's
// iteration space on one registered target, memoized per (target,
// bindings, fraction). bkey is the caller's canonicalized
// attrdb.BindingsKey for b.
func (r *Region) execute(sp *TargetSpec, b symbolic.Bindings, frac float64, bkey string) (float64, error) {
	rt := r.rt
	key := execKey(sp.ID, bkey, frac)
	r.mu.Lock()
	if s, ok := r.exec[key]; ok {
		r.mu.Unlock()
		rt.met.execHits.Add(1)
		return s, nil
	}
	r.mu.Unlock()
	rt.met.execMisses.Add(1)
	var sec float64
	switch sp.Kind {
	case KindCPU:
		cfg := rt.cfg.CPUSim
		cfg.Threads = sp.Threads
		cfg.Fraction = frac
		res, err := sim.SimulateCPU(r.Kernel, sp.CPU, b, cfg)
		if err != nil {
			return 0, wrapInput(err)
		}
		sec = res.Seconds
	case KindGPU:
		cfg := rt.cfg.GPUSim
		cfg.IncludeTransfer = true
		cfg.Fraction = frac
		res, err := sim.SimulateGPU(r.Kernel, sp.GPU, sp.Link, b, cfg)
		if err != nil {
			return 0, wrapInput(err)
		}
		sec = res.Seconds
	default:
		return 0, fmt.Errorf("offload: unknown target kind %d", sp.Kind)
	}
	r.mu.Lock()
	r.exec[key] = sec
	r.mu.Unlock()
	return sec, nil
}

// decide is the one selection body behind Launch, Decide and DecideVals:
// serve a hit from the memoized decision cache, or evaluate every
// registered target's model, rank, pick by the policy (planning the split
// when asked), and memoize the result. The ranked candidates are written into
// d.Candidates' own storage, which the caller hands in (possibly empty)
// and keeps: over the slot evaluator a decide into a recycled Outcome
// allocates nothing, hit or miss — one hash, one sharded-LRU probe, and on
// a miss one shape resolution, N model arithmetics and a store into the
// entry the shard evicts.
func (r *Region) decide(ev evaluator, d *Decision) error {
	rt := r.rt
	if v, preds, cals, ok := ev.lookup(); ok {
		d.Candidates = rt.appendCandidates(d.Candidates[:0], preds, cals)
		rankCandidates(d.Candidates)
		d.SplitFraction = v.frac
		d.CacheHit = true
		d.Provenance = v.prov
		rt.setChosen(d, v.targetIdx)
		rt.met.decisionHits.Add(1)
		return nil
	}
	rt.met.decisionMisses.Add(1)
	preds, err := r.evalAll(ev)
	if err != nil {
		return err
	}
	if err := r.selectTarget(d, rt.appendCandidates(d.Candidates[:0], preds, preds), ev); err != nil {
		return err
	}
	ev.store(d.Candidates, verdict{targetIdx: d.targetIdx, frac: d.SplitFraction, prov: d.Provenance})
	return nil
}

// decideOnly is the decide-only call behind Decide and DecideVals: it
// decides the point ev prices into *out — reusing the candidate storage
// *out brings — releases ev and fires the observer. start is when the
// caller began binding, so the reported overhead covers it.
func (r *Region) decideOnly(ev evaluator, start time.Time, b symbolic.Bindings, out *Outcome) error {
	rt := r.rt
	rt.met.decides.Add(1)
	d := &out.Decision
	*d = Decision{Region: r.Name, Bindings: b, Policy: rt.cfg.Policy, Candidates: d.Candidates[:0]}
	err := r.decide(ev, d)
	ev.release()
	if err != nil {
		return err
	}
	d.DecisionOverhead = time.Since(start)
	rt.notify(d)
	return nil
}

// inlineCandidates is the number of candidates an Outcome the runtime
// allocates carries in the same allocation; a larger registry's ranking
// costs a second one.
const inlineCandidates = 4

// newOutcome allocates an Outcome together with storage for its
// candidates.
func newOutcome() *Outcome {
	o := new(struct {
		Outcome
		cands [inlineCandidates]Candidate
	})
	o.Candidates = o.cands[:0]
	return &o.Outcome
}

// Decide runs the selection stage only — cache lookup, model evaluation
// on a miss, policy decision — without dispatching any execution. It is
// the serving path of a pure decision service: the caller owns the
// generated code versions and just needs to know which one to run.
// Decisions are memoized in (and served from) the same cache as Launch,
// so a Decide followed by a Launch with the same bindings costs one model
// evaluation total. The observer hook fires. The Outcome is the caller's.
func (r *Region) Decide(b symbolic.Bindings) (*Outcome, error) {
	out := newOutcome()
	if err := r.DecideInto(b, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecideInto is Decide writing the outcome over *out, candidate storage
// included, so a caller that decides in a loop brings its own. After an
// error *out holds nothing usable.
func (r *Region) DecideInto(b symbolic.Bindings, out *Outcome) error {
	start := time.Now()
	ev, err := r.bind(b)
	if err != nil {
		return err
	}
	return r.decideOnly(ev, start, b, out)
}

// Launch reaches the target region with the given runtime values,
// selects a target per the policy (memoizing the decision), executes it,
// and hands the completed decision to the observer.
func (r *Region) Launch(b symbolic.Bindings) (*Outcome, error) {
	rt := r.rt
	pol := rt.cfg.Policy
	rt.met.launches.Add(1)
	out := newOutcome()
	d := &out.Decision
	d.Region, d.Bindings, d.Policy = r.Name, b, pol
	start := time.Now()

	ev, err := r.bind(b)
	if err != nil {
		return nil, err
	}
	key := ev.key()
	err = r.decide(ev, d)
	ev.release()
	if err != nil {
		return nil, err
	}
	d.DecisionOverhead = time.Since(start)

	if pol == Oracle {
		// Run every registered code version and keep the fastest.
		ms, best, err := r.measure(b, key)
		if err != nil {
			return nil, err
		}
		rt.setChosen(d, best)
		d.ActualSeconds = ms[best].Seconds
		return r.finish(out)
	}

	if d.Target == KindSplit {
		cpuSp := &rt.targets.specs[rt.targets.baseCPU]
		gpuSp := &rt.targets.specs[rt.targets.baseGPU]
		cpuSec, err := r.execute(cpuSp, b, d.SplitFraction, key)
		if err != nil {
			return nil, err
		}
		gpuSec, err := r.execute(gpuSp, b, 1-d.SplitFraction, key)
		if err != nil {
			return nil, err
		}
		// Both halves run concurrently; joining adds one barrier.
		_, _, join := cpuSp.CPU.OverheadCycles(cpuSp.Threads)
		d.ActualSeconds = maxf(cpuSec, gpuSec) +
			join/(cpuSp.CPU.FreqGHz*1e9)
		return r.finish(out)
	}

	sec, err := r.execute(&rt.targets.specs[d.targetIdx], b, 1, key)
	if err != nil {
		return nil, err
	}
	d.ActualSeconds = sec
	return r.finish(out)
}

// finish counts the dispatch by target ID and fires the observer hook.
func (r *Region) finish(out *Outcome) (*Outcome, error) {
	rt := r.rt
	rt.dispatchID[out.targetIdx].Add(1)
	rt.notify(&out.Decision)
	return out, nil
}

// notify fires the configured observer hook, if any, with a copy of the
// decision whose candidates are the observer's to keep: the Outcome's own
// are overwritten by the next decide into it.
func (rt *Runtime) notify(d *Decision) {
	if fn := rt.obs.Load(); fn != nil {
		c := *d
		c.Candidates = append([]Candidate(nil), d.Candidates...)
		(*fn)(c)
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

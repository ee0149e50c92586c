package offload

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// movingCalibrator scales every GPU-kind candidate by factor. Armed, its
// next CorrectFeatures reads the factor for the verdict in hand, then moves
// to next and reports the region to the hook the runtime installed — the
// order of events when an audit lands while a decide is between pricing
// and storing.
type movingCalibrator struct {
	factor, next float64
	armed        bool
	changed      func(region string)
}

func (c *movingCalibrator) CorrectFeatures(region string, _ Features, cands []Candidate) string {
	f := c.factor
	if c.armed {
		c.armed, c.factor = false, c.next
		c.changed(region)
	}
	for i := range cands {
		if cands[i].Kind == KindGPU {
			cands[i].CalSeconds = cands[i].PredSeconds * f
		}
	}
	return ProvenanceAnalytical
}

func (c *movingCalibrator) OnCorrectionChange(changed func(string)) { c.changed = changed }

func gemmRegion(t *testing.T, cfg Config) (*Runtime, *Region, symbolic.Bindings) {
	t.Helper()
	if cfg.Platform.CPU == nil {
		cfg.Platform = machine.PlatformP9V100()
	}
	rt := NewRuntime(cfg)
	k, err := polybench.Get("gemm")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rt.Register(k.IR)
	if err != nil {
		t.Fatal(err)
	}
	return rt, r, k.Bindings(polybench.Test)
}

// gpuCal returns the calibrated seconds over the raw ones of the ranking's
// GPU candidate.
func gpuCal(t *testing.T, out *Outcome) float64 {
	t.Helper()
	for _, c := range out.Candidates {
		if c.Kind == KindGPU {
			return c.CalSeconds / c.PredSeconds
		}
	}
	t.Fatalf("no GPU candidate in %+v", out.Candidates)
	return 0
}

// TestVerdictPricedBeforeInvalidationIsNotMemoized is the law "no verdict
// priced with a factor older than the invalidation that preceded its
// start", at its sharpest: the correction moves — and invalidates the
// region — after a decide has read the old factor and before it stores.
// The caller of that decide gets its (old-factor) answer; the store must
// not keep it, or every later launch of the key is served the stale
// verdict as a hit until the corrections happen to move again.
func TestVerdictPricedBeforeInvalidationIsNotMemoized(t *testing.T) {
	cal := &movingCalibrator{factor: 1, next: 64}
	rt, r, b := gemmRegion(t, Config{Calibrator: cal})
	cal.armed = true
	first, err := r.Decide(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := gpuCal(t, first); first.CacheHit || got != 1 {
		t.Fatalf("the decide in flight: cache hit %v, GPU factor %v; want a miss priced at 1", first.CacheHit, got)
	}
	second, err := r.Decide(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := gpuCal(t, second); second.CacheHit || got != 64 {
		t.Fatalf("the decide after the invalidation: cache hit %v, GPU factor %v; want a miss priced at 64",
			second.CacheHit, got)
	}
	third, err := r.Decide(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := gpuCal(t, third); !third.CacheHit || got != 64 {
		t.Fatalf("the new verdict was not memoized: cache hit %v, GPU factor %v", third.CacheHit, got)
	}
	if m := rt.Metrics(); m.DecisionCacheStale != 1 || m.DecisionCacheSize != 1 {
		t.Fatalf("%d stale verdicts dropped, %d entries live; want 1 and 1", m.DecisionCacheStale, m.DecisionCacheSize)
	}

	// Predict's prediction-only entry obeys the same rule when the model
	// inputs move under it: here a profile lands between two launches.
	r.InvalidateDecisions()
	ev, err := r.bind(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := ev.lookup(); ok {
		t.Fatal("an invalidated region served an entry")
	}
	if _, err := r.evalAll(ev); err != nil {
		t.Fatal(err)
	}
	r.setProfile(&ProfileData{BranchProb: 0.9})
	ev.store(nil, verdict{})
	ev.release()
	if m := rt.Metrics(); m.DecisionCacheStale != 2 || m.DecisionCacheSize != 0 {
		t.Fatalf("%d stale verdicts dropped, %d entries live; want 2 and 0", m.DecisionCacheStale, m.DecisionCacheSize)
	}
}

// atomicCalibrator scales GPU-kind candidates by a factor that moves while
// decides are in flight.
type atomicCalibrator struct {
	bits    atomic.Uint64
	changed func(region string)
}

func (c *atomicCalibrator) CorrectFeatures(_ string, _ Features, cands []Candidate) string {
	f := math.Float64frombits(c.bits.Load())
	for i := range cands {
		if cands[i].Kind == KindGPU {
			cands[i].CalSeconds = cands[i].PredSeconds * f
		}
	}
	return ProvenanceAnalytical
}

func (c *atomicCalibrator) OnCorrectionChange(changed func(string)) { c.changed = changed }

// TestVerdictPricedBeforeInvalidationConcurrent is the same law with real
// concurrency: deciders hammer one key while the correction moves under
// them, each movement followed by the invalidation a corrector owes its
// runtime. Whatever the interleaving, once the last invalidation has
// returned nothing priced before it may be served: the memoized verdict
// carries the final factor. Run under -race.
func TestVerdictPricedBeforeInvalidationConcurrent(t *testing.T) {
	cal := &atomicCalibrator{}
	cal.bits.Store(math.Float64bits(1))
	_, r, b := gemmRegion(t, Config{Calibrator: cal})
	const moves = 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.Decide(b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 2; i <= moves; i++ {
		cal.bits.Store(math.Float64bits(float64(i)))
		cal.changed(r.Name)
	}
	close(stop)
	wg.Wait()
	for i := 0; i < 2; i++ {
		out, err := r.Decide(b)
		if err != nil {
			t.Fatal(err)
		}
		if got := gpuCal(t, out); got != moves {
			t.Fatalf("decide %d after the last invalidation: GPU factor %v (cache hit %v), want %d",
				i, got, out.CacheHit, moves)
		}
	}
}

// TestOutcomeOwnsCandidates: what a decide hands out belongs to whoever
// it was handed to. An Outcome obtained from a cache hit is unchanged after
// its key is evicted, its region invalidated, or the key decided again
// under other corrections; DecideValsInto ranks into the storage of the
// Outcome it is given and nowhere else; and an observer's Decision carries
// candidates of its own, intact after the Outcome they were copied from is
// decided into again.
func TestOutcomeOwnsCandidates(t *testing.T) {
	cal := &movingCalibrator{factor: 1, next: 64}
	var seen []Decision
	rt, r, b := gemmRegion(t, Config{Calibrator: cal, DecisionCacheSize: 2})
	rt.SetObserver(func(d Decision) { seen = append(seen, d) })
	if _, err := r.Decide(b); err != nil {
		t.Fatal(err)
	}
	hit, err := r.Decide(b)
	if err != nil || !hit.CacheHit {
		t.Fatalf("no cache hit to hold on to: %+v, %v", hit, err)
	}
	held := *hit
	held.Candidates = append([]Candidate(nil), hit.Candidates...)

	vals := slotVals(t, r, b)
	var out Outcome
	for i := 0; i < 4; i++ { // four more keys through two entries: b's is evicted
		vals[0]++
		if err := r.DecideValsInto(vals, &out); err != nil {
			t.Fatal(err)
		}
	}
	if rt.Metrics().DecisionCacheEvictions < 3 {
		t.Fatalf("nothing was evicted: %+v", rt.Metrics())
	}
	r.InvalidateDecisions()
	cal.armed = true // the next decide moves the GPU factor to 64
	if _, err := r.Decide(b); err != nil {
		t.Fatal(err)
	}
	again, err := r.Decide(b)
	if err != nil || gpuCal(t, again) != 64 {
		t.Fatalf("the key was not decided again under the new factor: %+v, %v", again, err)
	}
	if !reflect.DeepEqual(*hit, held) {
		t.Fatalf("an Outcome changed in its holder's hands:\n %+v\n %+v", *hit, held)
	}

	// The observer saw every decide; each Decision's candidates are what the
	// decide ranked, and none shares storage with the recycled Outcome.
	if len(seen) != 8 {
		t.Fatalf("observer saw %d decisions, want 8", len(seen))
	}
	for i, d := range seen[2:6] {
		if len(d.Bindings) != len(vals) {
			t.Fatalf("observed slot-form decision %d carries bindings %v", i, d.Bindings)
		}
		want, err := r.PredictTargets(d.Bindings)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Candidates) != len(want) || &d.Candidates[0] == &out.Candidates[0] {
			t.Fatalf("observed decision %d shares the Outcome's candidates", i)
		}
		for j := range want {
			if d.Candidates[j].Target != want[j].Target || d.Candidates[j].PredSeconds != want[j].PredSeconds {
				t.Fatalf("observed decision %d: candidates %+v, predicted %+v", i, d.Candidates, want)
			}
		}
	}
}

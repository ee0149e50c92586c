package audit

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/hybridsel/hybridsel/internal/metrics"
)

// regionStats accumulates one region's verdicts, guarded by the Auditor's
// lock.
type regionStats struct {
	samples     uint64
	mispredicts uint64
	regretSec   float64
	// targets is one signed log-error distribution per registered target,
	// in registry order.
	targets []errAgg
}

func (rs *regionStats) observe(v Verdict) {
	rs.samples++
	if v.Mispredict {
		rs.mispredicts++
	}
	rs.regretSec += v.RegretSeconds
	if rs.targets == nil {
		rs.targets = make([]errAgg, len(v.Targets))
	}
	for i := range v.Targets {
		rs.targets[i].observe(v.Targets[i].LogErr)
	}
}

// errAgg is a running signed log-error distribution.
type errAgg struct {
	n          uint64
	sum, sumsq float64
	min, max   float64
}

func (a *errAgg) observe(x float64) {
	if a.n == 0 || x < a.min {
		a.min = x
	}
	if a.n == 0 || x > a.max {
		a.max = x
	}
	a.n++
	a.sum += x
	a.sumsq += x * x
}

func (a *errAgg) summary() ModelError {
	if a.n == 0 {
		return ModelError{}
	}
	mean := a.sum / float64(a.n)
	variance := a.sumsq/float64(a.n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return ModelError{
		Mean: mean, Std: math.Sqrt(variance),
		Min: a.min, Max: a.max,
	}
}

// ModelError summarizes one registered target's signed log-error
// distribution ln(actual/predicted) over a region's audits (positive =
// the model underestimates) plus the correction factor currently applied.
type ModelError struct {
	// Target is the registry target ID.
	Target string  `json:"target"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// Factor is the live multiplicative correction (1 = uncorrected).
	Factor float64 `json:"factor"`
}

// RegionReport is one region's accuracy accounting.
type RegionReport struct {
	Region        string  `json:"region"`
	Samples       uint64  `json:"samples"`
	Mispredicts   uint64  `json:"mispredicts"`
	RegretSeconds float64 `json:"regretSeconds"`
	// Targets is every registered target's model error, in registry order.
	Targets []ModelError `json:"targets"`
}

// Report is a point-in-time snapshot of the auditor's accounting.
type Report struct {
	// Rate is the configured sampling rate.
	Rate float64 `json:"rate"`
	// Offered counts decisions presented to the sampler; Skipped those
	// that fell outside the rate or were recently audited.
	Offered uint64 `json:"offered"`
	Skipped uint64 `json:"skipped"`
	// Samples counts completed audits; Dropped the sampled decisions
	// discarded under queue pressure; ExecErrors failed ground-truth
	// executions.
	Samples    uint64 `json:"samples"`
	Dropped    uint64 `json:"dropped"`
	ExecErrors uint64 `json:"execErrors"`
	// Mispredicts and RegretSeconds aggregate over all regions.
	Mispredicts   uint64  `json:"mispredicts"`
	RegretSeconds float64 `json:"regretSeconds"`
	// Regions holds the per-region accounting, sorted by region name.
	Regions []RegionReport `json:"regions"`
}

// Report snapshots the auditor's accounting. Async audits still in the
// queue are not yet included; Close first for a final report.
func (a *Auditor) Report() Report {
	rep := Report{
		Rate:       a.cfg.Rate,
		Offered:    a.offered.Load(),
		Skipped:    a.skippedNS.Load(),
		Dropped:    a.dropped.Load(),
		ExecErrors: a.execErrs.Load(),
	}
	reg := a.cfg.Runtime.Targets()
	a.mu.Lock()
	rep.Samples = a.samples
	rep.Mispredicts = a.mispredicts
	rep.RegretSeconds = a.regretSec
	rep.Regions = make([]RegionReport, 0, len(a.regions))
	for name, rs := range a.regions {
		rr := RegionReport{
			Region:        name,
			Samples:       rs.samples,
			Mispredicts:   rs.mispredicts,
			RegretSeconds: rs.regretSec,
			Targets:       make([]ModelError, len(rs.targets)),
		}
		for i := range rs.targets {
			me := rs.targets[i].summary()
			me.Target, me.Factor = reg.At(i).ID, 1
			if a.cfg.Corrector != nil {
				me.Factor, _ = a.cfg.Corrector.Factor(name, me.Target)
			}
			rr.Targets[i] = me
		}
		rep.Regions = append(rep.Regions, rr)
	}
	a.mu.Unlock()
	sort.Slice(rep.Regions, func(i, j int) bool {
		return rep.Regions[i].Region < rep.Regions[j].Region
	})
	return rep
}

// RegisterMetrics declares the shadow-audit series on s, all derived from
// one Report per scrape. A nil auditor declares them too, the aggregates
// reading zero and the per-region families empty, so dashboards and the
// CI scrape keep the series when auditing is off.
func (a *Auditor) RegisterMetrics(s *metrics.Set) {
	samples := s.Rows("hybridsel_audit_samples_total", "counter",
		"Served decisions audited against ground truth.")
	mispredicts := s.Rows("hybridsel_mispredict_total", "counter",
		"Audited decisions whose chosen target was not the measured-faster one.")
	dropped := s.Rows("hybridsel_audit_dropped_total", "counter",
		"Sampled decisions dropped because the audit queue was full.")
	regret := s.Rows("hybridsel_audit_regret_seconds_total", "counter",
		"Cumulative time lost to mispredicted targets (actual chosen minus actual best).")
	regionSamples := s.Rows("hybridsel_audit_region_samples_total", "counter",
		"Audited decisions by region.")
	regionMispredicts := s.Rows("hybridsel_audit_region_mispredict_total", "counter",
		"Audited mispredictions by region.")
	regionRegret := s.Rows("hybridsel_audit_region_regret_seconds_total", "counter",
		"Time lost to mispredicted targets by region.")
	factor := s.Rows("hybridsel_correction_factor", "gauge",
		"Multiplicative calibration applied to a target's predicted seconds (1 = uncorrected).")
	s.Collect(func() {
		var rep Report
		if a != nil {
			rep = a.Report()
		}
		samples(float64(rep.Samples))
		mispredicts(float64(rep.Mispredicts))
		dropped(float64(rep.Dropped))
		regret(rep.RegretSeconds)
		for _, r := range rep.Regions {
			regionSamples(float64(r.Samples), "region", r.Region)
			regionMispredicts(float64(r.Mispredicts), "region", r.Region)
			regionRegret(r.RegretSeconds, "region", r.Region)
			for _, me := range r.Targets {
				factor(me.Factor, "region", r.Region, "target", me.Target)
			}
		}
	})
}

// String renders the report as an aligned summary, worst regions (by
// regret) first.
func (r Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "shadow-audit report (rate %.2f)\n", r.Rate)
	fmt.Fprintf(&sb, "  offered %d, skipped %d, audited %d, dropped %d, exec errors %d\n",
		r.Offered, r.Skipped, r.Samples, r.Dropped, r.ExecErrors)
	if r.Samples > 0 {
		fmt.Fprintf(&sb, "  mispredicts %d/%d (%.1f%%), regret %.6fs\n",
			r.Mispredicts, r.Samples,
			100*float64(r.Mispredicts)/float64(r.Samples), r.RegretSeconds)
	}
	worst := append([]RegionReport(nil), r.Regions...)
	sort.Slice(worst, func(i, j int) bool {
		if worst[i].RegretSeconds != worst[j].RegretSeconds {
			return worst[i].RegretSeconds > worst[j].RegretSeconds
		}
		return worst[i].Region < worst[j].Region
	})
	for i, rr := range worst {
		if i == 8 {
			fmt.Fprintf(&sb, "  ... %d more regions\n", len(worst)-i)
			break
		}
		fmt.Fprintf(&sb, "  %-12s %3d audits, %3d wrong, regret %.6fs, factors",
			rr.Region, rr.Samples, rr.Mispredicts, rr.RegretSeconds)
		for _, me := range rr.Targets {
			fmt.Fprintf(&sb, " %s %.3f", me.Target, me.Factor)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

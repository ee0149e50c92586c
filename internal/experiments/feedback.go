package experiments

import (
	"fmt"

	"github.com/hybridsel/hybridsel/internal/audit"
	"github.com/hybridsel/hybridsel/internal/learn"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/stats"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// variant is one way of correcting the analytical selector with audit
// feedback: the corrector the variant's deciding runtime consults and its
// auditor trains. The zero variant is the paper's selector: nothing
// corrects it and nothing audits it.
type variant struct {
	corrector interface {
		offload.Calibrator
		audit.Corrector
	}
}

// ewmaVariant corrects each region by the EWMA of its audited error.
func ewmaVariant() variant { return variant{audit.NewCalibrator(0)} }

// learnerVariant corrects by the residual learner, which trains and falls
// back to an EWMA until a model clears the confidence gate.
func learnerVariant() (variant, *learn.Learner) {
	lrn := learn.New(learn.Config{Fallback: audit.NewCalibrator(0), MinSamples: LearnMinSamples})
	return variant{lrn}, lrn
}

// Tally is what one variant's choices cost on one kernel over a study.
type Tally struct {
	// Wrong counts the decisions whose target was not the measured-fastest
	// one, Regret the seconds they lost, Seconds the chosen targets' time.
	Wrong           int
	Regret, Seconds float64
	// Learned counts the decisions of learned provenance (the learner's
	// confidence gate passed).
	Learned int
	// Flip is the first round (1-based) in which the variant chose
	// differently from the study's first variant at the same point; 0 =
	// never.
	Flip int
}

// feedback is the predict→measure→correct loop every calibration study
// reads: each variant decides every cell of every kernel `rounds` times on
// a private runtime (the variants' corrections differ, so their decisions
// cannot be shared), and an inline shadow auditor sampling at `rate` feeds
// what the cells measured back into the variant's corrector. The auditors
// read the same shared runtime the cells came from, so nothing is
// simulated here: a variant's choice is priced by looking it up in the
// cell.
//
// Kernels run sequentially in suite order, the rounds of one kernel
// before the next kernel: the learner's global model depends on the order
// its samples arrive in (the per-region EWMA does not), so the loop is
// deterministic. It returns each variant's tally per kernel (r.kernels
// order) and its auditor's accounting.
func (r *Runner) feedback(plat machine.Platform, threads, rounds int, rate float64,
	cells [][]cell, variants []variant) ([][]Tally, []audit.Report, error) {
	pricing, err := r.runtime(plat, threads)
	if err != nil {
		return nil, nil, err
	}
	type side struct {
		rt      *offload.Runtime
		regions []*offload.Region
		auditor *audit.Auditor
	}
	sides := make([]side, len(variants))
	tallies := make([][]Tally, len(variants))
	for vi, v := range variants {
		s := &sides[vi]
		if s.rt, s.regions, err = r.newRuntime(plat, threads, v.corrector); err != nil {
			return nil, nil, err
		}
		tallies[vi] = make([]Tally, len(r.kernels))
		if v.corrector != nil {
			s.auditor = audit.New(audit.Config{Runtime: pricing, Rate: rate, Corrector: v.corrector})
			defer s.auditor.Close()
			s.rt.SetObserver(s.auditor.Offer)
		}
	}
	for ki, k := range r.kernels {
		for round := 1; round <= rounds; round++ {
			for _, c := range cells[ki] {
				var first string
				for vi := range variants {
					d, err := sides[vi].regions[ki].Decide(c.b)
					if err != nil {
						return nil, nil, fmt.Errorf("%s: %w", k.Name, err)
					}
					t := &tallies[vi][ki]
					sec := c.actual[d.TargetID]
					t.Seconds += sec
					if sec > c.actual[c.best] {
						t.Wrong++
						t.Regret += sec - c.actual[c.best]
					}
					if d.Provenance == offload.ProvenanceLearned {
						t.Learned++
					}
					if vi == 0 {
						first = d.TargetID
					} else if t.Flip == 0 && d.TargetID != first {
						t.Flip = round
					}
				}
			}
		}
	}
	reports := make([]audit.Report, len(variants))
	r.mu.Lock()
	defer r.mu.Unlock()
	for vi, s := range sides {
		if s.auditor != nil {
			reports[vi] = s.auditor.Report()
		}
		r.decided = r.decided.Merge(s.rt.Metrics())
	}
	return tallies, reports, nil
}

// ------------------------------------------------------- the readings --

// StudyRow compares a study's two variants on one kernel.
type StudyRow struct {
	Kernel string
	// Base is the study's reference variant, Corrected the one under test.
	Base, Corrected Tally
	// HostSeconds is what the kernel's launches take when all of them run
	// on the base host target: the baseline of Speedups.
	HostSeconds float64
}

// Speedups returns each variant's speedup over the all-host baseline.
func (row StudyRow) Speedups() (base, corrected float64) {
	return row.HostSeconds / row.Base.Seconds, row.HostSeconds / row.Corrected.Seconds
}

// StudyResult is one reading of the feedback loop: two variants deciding
// the same launches, compared kernel by kernel.
type StudyResult struct {
	Mode    polybench.Mode
	Threads int
	// Every kernel is decided at Points launch points, Rounds times each.
	Rounds, Points int
	Rate           float64
	Rows           []StudyRow
	// Total decision regret per variant — the studies' gate: the
	// corrected variant must never exceed the base one.
	RegretBase, RegretCorrected float64
	// Report is the corrected variant's shadow-audit accounting.
	Report audit.Report
	// Stats is the learner's verdict/model accounting after a study with a
	// learner in it, MinSamples its confidence gate.
	Stats      learn.Stats
	MinSamples int
}

// GeoSpeedups returns the suite geomean of each variant's speedup over the
// all-host baseline.
func (res StudyResult) GeoSpeedups() (base, corrected float64) {
	var b, c []float64
	for _, row := range res.Rows {
		sb, sc := row.Speedups()
		b, c = append(b, sb), append(c, sc)
	}
	return stats.GeoMean(b), stats.GeoMean(c)
}

// study reads the feedback loop on the POWER9+V100 platform as a
// comparison of two variants over the launch points pts names.
func (r *Runner) study(m polybench.Mode, threads, rounds int, rate float64,
	pts func(*polybench.Kernel) []symbolic.Bindings, base, corrected variant) (StudyResult, error) {
	if rounds < 2 {
		rounds = 2 // one round to mispredict and be audited, one to flip
	}
	plat := machine.PlatformP9V100()
	res := StudyResult{Mode: m, Threads: threads, Rounds: rounds, Rate: rate}
	cells, err := r.cells(plat, threads, pts)
	if err != nil {
		return res, err
	}
	tallies, reports, err := r.feedback(plat, threads, rounds, rate, cells, []variant{base, corrected})
	if err != nil {
		return res, err
	}
	for ki, k := range r.kernels {
		row := StudyRow{Kernel: k.Name, Base: tallies[0][ki], Corrected: tallies[1][ki]}
		for _, c := range cells[ki] {
			row.HostSeconds += c.actual[offload.TargetIDCPUBase]
		}
		row.HostSeconds *= float64(rounds)
		res.Rows = append(res.Rows, row)
		res.Points = len(cells[ki])
		res.RegretBase += row.Base.Regret
		res.RegretCorrected += row.Corrected.Regret
	}
	res.Report = reports[1]
	return res, nil
}

// AuditStudy measures what the predict→measure feedback loop buys: the
// loop read at one point per kernel (its mode bindings), the paper's
// uncorrected selector against one shadow-audited at `rate` with an online
// EWMA calibrator. A kernel whose model picks the slower target keeps
// paying its regret every round on the uncalibrated side; on the
// calibrated side the first audited round seeds the correction and
// subsequent rounds flip to the measured-faster target.
func (r *Runner) AuditStudy(m polybench.Mode, threads, rounds int, rate float64) (StudyResult, error) {
	return r.study(m, threads, rounds, rate, modePoint(m), variant{}, ewmaVariant())
}

// LearnMinSamples is the learner confidence gate used by the study: with
// `points` distinct audited points per kernel, a per-(region, target)
// model clears the gate after the second audit and corrects the rounds
// that follow.
const LearnMinSamples = 2

// learnPoints derives `points` distinct binding points from a kernel's
// mode bindings by successively halving every extent (floored at 8): the
// audit loop deduplicates (region, bindings) keys, so the learner needs
// several distinct points per region to clear its sample gate — and the
// size spread is exactly what the feature regression can exploit over a
// per-region scalar EWMA.
func learnPoints(k *polybench.Kernel, m polybench.Mode, points int) []symbolic.Bindings {
	base := k.Bindings(m)
	out := make([]symbolic.Bindings, 0, points)
	for v := 0; v < points; v++ {
		b := make(symbolic.Bindings, len(base))
		for name, val := range base {
			s := val >> uint(v)
			if s < 8 {
				s = 8
			}
			b[name] = s
		}
		out = append(out, b)
	}
	return out
}

// LearnStudy is the loop read with the online residual learner in it:
// over `points` distinct problem sizes per kernel, the per-region EWMA
// calibrator alone against an internal/learn Learner whose confidence gate
// falls back to an identically-fed EWMA. Both sides audit the same points
// at the same rate, so until a learned model clears its gate the two
// variants decide bit-for-bit alike; once it does, the feature regression
// can separate problem sizes the scalar EWMA must average together.
func (r *Runner) LearnStudy(m polybench.Mode, threads, rounds, points int, rate float64) (StudyResult, error) {
	if points < 2 {
		points = 2
	}
	learner, lrn := learnerVariant()
	res, err := r.study(m, threads, rounds, rate, func(k *polybench.Kernel) []symbolic.Bindings {
		return learnPoints(k, m, points)
	}, ewmaVariant(), learner)
	res.Stats, res.MinSamples = lrn.Stats(), LearnMinSamples
	return res, err
}

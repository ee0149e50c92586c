package experiments

import (
	"fmt"
	"strings"

	"github.com/hybridsel/hybridsel/internal/audit"
	"github.com/hybridsel/hybridsel/internal/learn"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/stats"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

// LearnMinSamples is the learner confidence gate used by the study: with
// `points` distinct audited points per kernel, a per-(region, target)
// model clears the gate after the second audit and corrects the rounds
// that follow.
const LearnMinSamples = 2

// LearnRow compares one kernel's repeated launches under EWMA-only
// calibration against the residual learner (EWMA fallback inside).
type LearnRow struct {
	Kernel string
	// Mispredicted launches (chosen target was not the measured-fastest
	// one) and the time they cost, per variant.
	MispredictsEWMA  int
	MispredictsLearn int
	RegretEWMA       float64
	RegretLearn      float64
	// Learned counts the kernel's launches decided with learned
	// provenance (the confidence gate passed).
	Learned int
	// FlipRound is the first round (1-based) where the learner variant
	// chose a different target than the EWMA variant; -1 = never.
	FlipRound int
}

// LearnResult aggregates the residual-learner study.
type LearnResult struct {
	Mode       polybench.Mode
	Threads    int
	Rounds     int
	Points     int
	Rate       float64
	MinSamples int
	Rows       []LearnRow
	// Total decision regret per variant — the study's gate: the learner
	// must never exceed the EWMA-only baseline.
	RegretEWMA  float64
	RegretLearn float64
	// Stats is the learner's verdict/model accounting after the study.
	Stats learn.Stats
}

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

// LearnStudy reruns the shadow-audit study with the online residual
// learner in the loop: each kernel is launched over `points` distinct
// problem sizes for `rounds` rounds through two audited runtimes on the
// POWER9+V100 platform — one corrected by the per-region EWMA calibrator
// alone, one by an internal/learn Learner whose confidence gate falls
// back to an identically-fed EWMA. Both sides audit the same points at
// the same rate, so until a learned model clears its gate the two
// variants decide bit-for-bit alike; once it does, the feature regression
// can separate problem sizes the scalar EWMA must average together.
//
// Audits run inline (Workers 0) and kernels run sequentially in suite
// order — the learner's global fallback weights depend on the
// cross-region training order, so the study is deterministic.
func (r *Runner) LearnStudy(m polybench.Mode, threads, rounds, points int, rate float64) (LearnResult, error) {
	if rounds < 2 {
		rounds = 2
	}
	if points < 2 {
		points = 2
	}
	plat := machine.PlatformP9V100()
	res := LearnResult{
		Mode: m, Threads: threads, Rounds: rounds, Points: points,
		Rate: rate, MinSamples: LearnMinSamples,
	}

	calE := audit.NewCalibrator(0)
	rtE, regE, err := r.newRuntime(plat, threads, calE)
	if err != nil {
		return res, err
	}
	audE := audit.New(audit.Config{Runtime: rtE, Rate: rate, Calibrator: calE})
	defer audE.Close()
	rtE.SetObserver(audE.Offer)

	calL := audit.NewCalibrator(0)
	lrn := learn.New(learn.Config{Fallback: calL, MinSamples: LearnMinSamples})
	rtL, regL, err := r.newRuntime(plat, threads, lrn)
	if err != nil {
		return res, err
	}
	audL := audit.New(audit.Config{Runtime: rtL, Rate: rate, Calibrator: calL, Learner: lrn})
	defer audL.Close()
	rtL.SetObserver(audL.Offer)

	// A third, uncalibrated runtime prices everyone's choices: its
	// memoized ExecuteTarget actuals are the shared ground truth.
	rtP, regP, err := r.newRuntime(plat, threads, nil)
	if err != nil {
		return res, err
	}
	ids := rtP.Targets().IDs()

	res.Rows = make([]LearnRow, 0, len(r.kernels))
	for ki, k := range r.kernels {
		pts := learnPoints(k, m, points)
		row := LearnRow{Kernel: k.Name, FlipRound: -1}
		for round := 1; round <= rounds; round++ {
			for _, b := range pts {
				best := 0.0
				actual := make(map[string]float64, len(ids))
				for i, id := range ids {
					a, err := regP[ki].ExecuteTarget(id, b)
					if err != nil {
						return res, err
					}
					actual[id] = a
					if i == 0 || a < best {
						best = a
					}
				}
				outE, err := regE[ki].Launch(b)
				if err != nil {
					return res, err
				}
				outL, err := regL[ki].Launch(b)
				if err != nil {
					return res, err
				}
				if c := actual[outE.TargetID]; c > best {
					row.MispredictsEWMA++
					row.RegretEWMA += c - best
				}
				if c := actual[outL.TargetID]; c > best {
					row.MispredictsLearn++
					row.RegretLearn += c - best
				}
				if outL.Provenance == offload.ProvenanceLearned {
					row.Learned++
				}
				if row.FlipRound < 0 && outL.TargetID != outE.TargetID {
					row.FlipRound = round
				}
			}
		}
		res.RegretEWMA += row.RegretEWMA
		res.RegretLearn += row.RegretLearn
		res.Rows = append(res.Rows, row)
	}
	res.Stats = lrn.Stats()
	return res, nil
}

// RenderLearn prints the residual-learner study: per-kernel regret under
// EWMA-only calibration versus the confidence-gated learner.
func RenderLearn(res LearnResult) string {
	launches := res.Rounds * res.Points
	t := stats.NewTable(
		fmt.Sprintf("Residual learner vs EWMA: %d rounds x %d sizes, %s mode, %d-thread host, rate %.2f, gate %d",
			res.Rounds, res.Points, res.Mode, res.Threads, res.Rate, res.MinSamples),
		"kernel", "wrong(ewma)", "wrong(learn)", "regret(ewma)", "regret(learn)", "learned", "flip@")
	for _, r := range res.Rows {
		flip := "-"
		if r.FlipRound > 0 {
			flip = fmt.Sprintf("%d", r.FlipRound)
		}
		t.AddRow(r.Kernel,
			fmt.Sprintf("%d/%d", r.MispredictsEWMA, launches),
			fmt.Sprintf("%d/%d", r.MispredictsLearn, launches),
			fmt.Sprintf("%.6f", r.RegretEWMA),
			fmt.Sprintf("%.6f", r.RegretLearn),
			fmt.Sprintf("%d/%d", r.Learned, launches),
			flip)
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString(fmt.Sprintf("\ntotal regret: %.6fs ewma-only, %.6fs learner\n",
		res.RegretEWMA, res.RegretLearn))
	sb.WriteString(fmt.Sprintf(
		"learner: %d samples, %d material updates, %d/%d models confident, verdicts %d learned / %d analytical\n",
		res.Stats.Samples, res.Stats.Updates, res.Stats.ConfidentModels,
		res.Stats.RegionModels+res.Stats.GlobalModels,
		res.Stats.LearnedVerdicts, res.Stats.AnalyticalVerdicts))
	return sb.String()
}

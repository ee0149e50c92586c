package experiments

import (
	"github.com/hybridsel/hybridsel/internal/audit"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/stats"
)

// AuditRow compares one kernel's repeated model-guided launches with and
// without the shadow-audit calibration loop.
type AuditRow struct {
	Kernel string
	// Mispredicted rounds (launches whose chosen target was not the
	// measured-faster one) and the time they cost, per variant.
	Mispredicts      int
	MispredictsCal   int
	RegretSeconds    float64
	RegretSecondsCal float64
	// Total chosen-target seconds across the rounds, per variant.
	TotalSeconds    float64
	TotalSecondsCal float64
	// Speedup of each variant's total time over the all-CPU baseline.
	Speedup    float64
	SpeedupCal float64
	// FlipRound is the first round (1-based) where the calibrated
	// runtime chose differently from the uncalibrated one; -1 = never.
	FlipRound int
}

// AuditResult aggregates the calibration study.
type AuditResult struct {
	Mode    polybench.Mode
	Threads int
	Rounds  int
	Rate    float64
	Rows    []AuditRow
	// Geomean speedups over the all-CPU baseline, and total regret, for
	// the uncalibrated and calibrated selectors.
	GeoUncal    float64
	GeoCal      float64
	RegretUncal float64
	RegretCal   float64
	// Report is the calibrated side's shadow-audit accounting.
	Report audit.Report
}

// AuditStudy measures what the predict→measure feedback loop buys: each
// kernel is launched `rounds` times through two model-guided runtimes on
// the POWER9+V100 platform — one uncalibrated (the paper's selector), one
// shadow-audited at `rate` with an online calibrator feeding measured
// error back into its decisions. A kernel whose model picks the slower
// target keeps paying its regret every round on the uncalibrated side;
// on the calibrated side the first audited round seeds the correction and
// subsequent rounds flip to the measured-faster target.
//
// The audits run inline (Workers 0), so the study is deterministic.
func (r *Runner) AuditStudy(m polybench.Mode, threads, rounds int, rate float64) (AuditResult, error) {
	if rounds < 2 {
		rounds = 2 // one round to mispredict and be audited, one to flip
	}
	plat := machine.PlatformP9V100()
	res := AuditResult{Mode: m, Threads: threads, Rounds: rounds, Rate: rate}

	_, regU, err := r.newRuntime(plat, threads, nil)
	if err != nil {
		return res, err
	}
	cal := audit.NewCalibrator(0)
	rtC, regC, err := r.newRuntime(plat, threads, cal)
	if err != nil {
		return res, err
	}
	auditor := audit.New(audit.Config{Runtime: rtC, Rate: rate, Calibrator: cal})
	defer auditor.Close()
	rtC.SetObserver(auditor.Offer)

	res.Rows = make([]AuditRow, len(r.kernels))
	err = r.forEachKernel(func(i int, k *polybench.Kernel) error {
		b := k.Bindings(m)
		actCPU, err := regU[i].ExecuteTarget(offload.TargetIDCPUBase, b)
		if err != nil {
			return err
		}
		actGPU, err := regU[i].ExecuteTarget(offload.TargetIDGPUBase, b)
		if err != nil {
			return err
		}
		best := actCPU
		if actGPU < actCPU {
			best = actGPU
		}
		row := AuditRow{Kernel: k.Name, FlipRound: -1}
		for round := 1; round <= rounds; round++ {
			outU, err := regU[i].Launch(b)
			if err != nil {
				return err
			}
			outC, err := regC[i].Launch(b)
			if err != nil {
				return err
			}
			// The two runtimes simulate identically, so the uncalibrated
			// side's memoized actuals price both variants' choices.
			chosenU, chosenC := actCPU, actCPU
			if outU.Target == offload.KindGPU {
				chosenU = actGPU
			}
			if outC.Target == offload.KindGPU {
				chosenC = actGPU
			}
			row.TotalSeconds += chosenU
			row.TotalSecondsCal += chosenC
			if chosenU > best {
				row.Mispredicts++
				row.RegretSeconds += chosenU - best
			}
			if chosenC > best {
				row.MispredictsCal++
				row.RegretSecondsCal += chosenC - best
			}
			if row.FlipRound < 0 && outC.Target != outU.Target {
				row.FlipRound = round
			}
		}
		baseline := float64(rounds) * actCPU
		row.Speedup = baseline / row.TotalSeconds
		row.SpeedupCal = baseline / row.TotalSecondsCal
		res.Rows[i] = row
		return nil
	})
	if err != nil {
		return res, err
	}

	var spU, spC []float64
	for _, row := range res.Rows {
		spU = append(spU, row.Speedup)
		spC = append(spC, row.SpeedupCal)
		res.RegretUncal += row.RegretSeconds
		res.RegretCal += row.RegretSecondsCal
	}
	res.GeoUncal = stats.GeoMean(spU)
	res.GeoCal = stats.GeoMean(spC)
	res.Report = auditor.Report()
	return res, nil
}

package experiments

import (
	"fmt"
	"strings"

	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/stats"
)

// RenderTable1 prints the cross-generation offloading study in the shape
// of the paper's Table I.
func RenderTable1(rows []Table1Row) string {
	t := stats.NewTable(
		"Table I: GPU offloading speedup over 160-thread host, by generation",
		"kernel", "mode", "P8+K80 (PCIe)", "P9+V100 (NVLink2)", "flip")
	for _, r := range rows {
		flip := ""
		if (r.K80Speedup >= 1) != (r.V100Speedup >= 1) {
			flip = "<- decision flips"
		}
		t.AddRow(r.Kernel, r.Mode.String(),
			fmt.Sprintf("%.2fx", r.K80Speedup),
			fmt.Sprintf("%.2fx", r.V100Speedup), flip)
	}
	return t.String()
}

// RenderTable3 prints the GPU device/bus parameter table (paper Table III).
func RenderTable3(g *machine.GPU, link machine.Link) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table III: %s device/bus parameters\n", g.Name)
	row := func(k string, v interface{}) { fmt.Fprintf(&sb, "  %-28s %v\n", k, v) }
	row("#SMs", g.SMs)
	row("Processor Cores", g.SMs*g.CoresPerSM)
	row("Graphics Clock", fmt.Sprintf("%.0f MHz", g.GraphicsClockGHz*1000))
	row("Processor Clock", fmt.Sprintf("%.0f MHz", g.ClockGHz*1000))
	row("Memory Size", fmt.Sprintf("%d GB", g.MemGB))
	row("Memory Bandwidth", fmt.Sprintf("%.0f GB/s", g.MemBandwidthGBs))
	row(link.Name+" Transfer Rate", fmt.Sprintf("%.0f GB/s", link.BandwidthGBs))
	row("Max Warps/SM", g.MaxWarpsPerSM)
	row("Max Threads/SM", g.MaxThreadsPerSM)
	row("Issue Rate", fmt.Sprintf("%.0f cyc/inst", g.IssueRate))
	row("Int Cmpu Inst. Latency", fmt.Sprintf("%d cycles", g.IntLatency))
	row("Float Cmpu Inst. Latency", fmt.Sprintf("%d cycles", g.FPLatency))
	row("Memory Access Latency", fmt.Sprintf("%d cycles", g.MemLatency))
	row("Access on TLB Hit", fmt.Sprintf("%d cycles", g.MemLatency))
	row("Access on L2 Hit", fmt.Sprintf("%d cycles", g.L2HitLatency))
	row("Access on L1 Hit", fmt.Sprintf("%d cycles", g.L1HitLatency))
	return sb.String()
}

// RenderFigure prints the actual-vs-predicted study (Figures 6/7): a
// log-log scatter, the per-kernel table, and summary quality metrics.
func RenderFigure(rows []PredRow, m polybench.Mode, threads int) string {
	var actual, pred []float64
	t := stats.NewTable("", "pt", "kernel", "actual", "predicted", "call")
	for i, r := range rows {
		actual = append(actual, r.Actual)
		pred = append(pred, r.Predicted)
		call := "ok"
		if (r.Actual >= 1) != (r.Predicted >= 1) {
			call = "WRONG"
		}
		t.AddRow(string(rune('a'+i%26)), r.Kernel,
			fmt.Sprintf("%.2fx", r.Actual), fmt.Sprintf("%.2fx", r.Predicted), call)
	}
	var sb strings.Builder
	fig := "Figure 6"
	if m == polybench.Benchmark {
		fig = "Figure 7"
	}
	fmt.Fprintf(&sb, "%s: actual vs predicted GPU offload speedup, %s mode, %d-thread host\n\n",
		fig, m, threads)
	sb.WriteString(stats.Scatter(actual, pred, 64, 20))
	sb.WriteString("\n")
	sb.WriteString(t.String())
	fmt.Fprintf(&sb, "\ncorrelation %.3f   MAPE %.0f%%   correct offload calls %.0f%%\n",
		stats.Correlation(actual, pred), stats.MAPE(actual, pred)*100,
		stats.AgreementRate(actual, pred)*100)
	return sb.String()
}

// RenderFigure8 prints the policy comparison (paper Figure 8).
func RenderFigure8(res Fig8Result) string {
	t := stats.NewTable(
		fmt.Sprintf("Figure 8: suite speedup over 160-thread host, %s mode", res.Mode),
		"kernel", "always-offload", "model-guided", "chose", "correct")
	for _, r := range res.Rows {
		ok := "yes"
		if !r.Correct {
			ok = "NO"
		}
		t.AddRow(r.Kernel, fmt.Sprintf("%.2fx", r.AlwaysOffload),
			fmt.Sprintf("%.2fx", r.ModelGuided), r.Chose, ok)
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString("\n")
	sb.WriteString(stats.Bars(
		[]string{"always-offload (geomean)", "model-guided (geomean)", "oracle (geomean)"},
		[]float64{res.AlwaysGeo, res.GuidedGeo, res.OracleGeo}, 40))
	return sb.String()
}

// RenderAblation prints an ablation study.
func RenderAblation(title string, rows []AblationRow) string {
	t := stats.NewTable(title, "variant", "correct-calls", "correlation", "MAPE")
	for _, r := range rows {
		t.AddRow(r.Variant,
			fmt.Sprintf("%.0f%%", r.Agreement*100),
			fmt.Sprintf("%.3f", r.Corr),
			fmt.Sprintf("%.0f%%", r.MAPE*100))
	}
	return t.String()
}

// flipRound prints a tally's flip round.
func flipRound(t Tally) string {
	if t.Flip > 0 {
		return fmt.Sprintf("%d", t.Flip)
	}
	return "-"
}

// RenderAudit prints the shadow-audit calibration study: per-kernel
// mispredict and regret deltas, and the closing geomean gap.
func RenderAudit(res StudyResult) string {
	t := stats.NewTable(
		fmt.Sprintf("Shadow-audit calibration: %d rounds, %s mode, %d-thread host, rate %.2f",
			res.Rounds, res.Mode, res.Threads, res.Rate),
		"kernel", "wrong", "wrong(cal)", "regret(s)", "regret(cal)", "speedup", "speedup(cal)", "flip@")
	for _, r := range res.Rows {
		speedup, speedupCal := r.Speedups()
		t.AddRow(r.Kernel,
			fmt.Sprintf("%d/%d", r.Base.Wrong, res.Rounds),
			fmt.Sprintf("%d/%d", r.Corrected.Wrong, res.Rounds),
			fmt.Sprintf("%.6f", r.Base.Regret),
			fmt.Sprintf("%.6f", r.Corrected.Regret),
			fmt.Sprintf("%.2fx", speedup),
			fmt.Sprintf("%.2fx", speedupCal),
			flipRound(r.Corrected))
	}
	geo, geoCal := res.GeoSpeedups()
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString("\n")
	sb.WriteString(stats.Bars(
		[]string{"model-guided (geomean)", "with calibration (geomean)"},
		[]float64{geo, geoCal}, 40))
	sb.WriteString(fmt.Sprintf("\ntotal regret: %.6fs uncalibrated, %.6fs calibrated\n",
		res.RegretBase, res.RegretCorrected))
	sb.WriteString(res.Report.String())
	return sb.String()
}

// RenderLearn prints the residual-learner study: per-kernel regret under
// EWMA-only calibration versus the confidence-gated learner.
func RenderLearn(res StudyResult) string {
	launches := res.Rounds * res.Points
	t := stats.NewTable(
		fmt.Sprintf("Residual learner vs EWMA: %d rounds x %d sizes, %s mode, %d-thread host, rate %.2f, gate %d",
			res.Rounds, res.Points, res.Mode, res.Threads, res.Rate, res.MinSamples),
		"kernel", "wrong(ewma)", "wrong(learn)", "regret(ewma)", "regret(learn)", "learned", "flip@")
	for _, r := range res.Rows {
		t.AddRow(r.Kernel,
			fmt.Sprintf("%d/%d", r.Base.Wrong, launches),
			fmt.Sprintf("%d/%d", r.Corrected.Wrong, launches),
			fmt.Sprintf("%.6f", r.Base.Regret),
			fmt.Sprintf("%.6f", r.Corrected.Regret),
			fmt.Sprintf("%d/%d", r.Corrected.Learned, launches),
			flipRound(r.Corrected))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	sb.WriteString(fmt.Sprintf("\ntotal regret: %.6fs ewma-only, %.6fs learner\n",
		res.RegretBase, res.RegretCorrected))
	sb.WriteString(fmt.Sprintf(
		"learner: %d samples, %d material updates, %d/%d models confident, verdicts %d learned / %d analytical\n",
		res.Stats.Samples, res.Stats.Updates, res.Stats.ConfidentModels,
		res.Stats.RegionModels+res.Stats.GlobalModels,
		res.Stats.LearnedVerdicts, res.Stats.AnalyticalVerdicts))
	return sb.String()
}

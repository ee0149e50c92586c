package experiments

import (
	"math"
	"strings"
	"testing"

	"github.com/hybridsel/hybridsel/internal/polybench"
)

// TestLearnStudyNeverWorseThanEWMA extends the calibration gate to the
// residual learner: with every point audited, the confidence-gated
// learner must never accumulate more regret than the EWMA-only
// calibrator it falls back to — in aggregate and per kernel — and must
// actually cross its gate into learned verdicts on this workload.
func TestLearnStudyNeverWorseThanEWMA(t *testing.T) {
	r, _ := NewRunner(fastOptions("gemm", "mvt1", "gesummv", "2dconv"))
	res, err := r.LearnStudy(polybench.Test, 4, 3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.RegretCorrected > res.RegretBase {
		t.Errorf("learner increased total regret: %.9f > %.9f",
			res.RegretCorrected, res.RegretBase)
	}
	var learned, mispredicted bool
	for _, row := range res.Rows {
		if row.Corrected.Regret > row.Base.Regret {
			t.Errorf("%s: learner regret %.9f > ewma-only %.9f",
				row.Kernel, row.Corrected.Regret, row.Base.Regret)
		}
		if row.Corrected.Learned > 0 {
			learned = true
		}
		if row.Base.Wrong > 0 {
			mispredicted = true
		}
	}
	if !learned {
		t.Error("no kernel ever crossed the confidence gate")
	}
	if !mispredicted {
		t.Skip("EWMA-only side never mispredicts under the fast simulators; " +
			"pick a different test point")
	}
	// The learner must have beaten at least one EWMA mispredict for the
	// study to demonstrate anything (strictly fewer wrong launches).
	var wrongE, wrongL int
	for _, row := range res.Rows {
		wrongE += row.Base.Wrong
		wrongL += row.Corrected.Wrong
	}
	if wrongL >= wrongE {
		t.Errorf("learner fixed no mispredicts: %d vs %d", wrongL, wrongE)
	}
	if res.Stats.LearnedVerdicts == 0 || res.Stats.Samples == 0 {
		t.Errorf("learner stats empty: %+v", res.Stats)
	}

	out := RenderLearn(res)
	for _, want := range []string{
		"Residual learner vs EWMA", "regret(learn)", "total regret",
		"models confident", "learned / ", "analytical",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestLearnStudyDeterministic reruns the study and requires bit-for-bit
// identical regret accounting — inline audits plus sequential kernel
// order make the learner's training stream, and so the study,
// reproducible.
func TestLearnStudyDeterministic(t *testing.T) {
	run := func() StudyResult {
		r, _ := NewRunner(fastOptions("gemm", "mvt1"))
		res, err := r.LearnStudy(polybench.Test, 4, 2, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if math.Float64bits(a.RegretCorrected) != math.Float64bits(b.RegretCorrected) ||
		math.Float64bits(a.RegretBase) != math.Float64bits(b.RegretBase) {
		t.Fatalf("regret not reproducible: %+v vs %+v", a, b)
	}
	if a.Stats != b.Stats {
		t.Fatalf("learner stats not reproducible:\n%+v\n%+v", a.Stats, b.Stats)
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("row %d not reproducible:\n%+v\n%+v", i, a.Rows[i], b.Rows[i])
		}
	}
}

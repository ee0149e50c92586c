package experiments

import (
	"strings"
	"testing"

	"github.com/hybridsel/hybridsel/internal/polybench"
)

// TestAuditStudyCalibrationNeverHurts is the study's gate: with every
// kernel audited, the calibration loop must never increase total regret
// or lower the suite geomean — a mispredicted kernel can only flip
// toward the measured-faster target.
func TestAuditStudyCalibrationNeverHurts(t *testing.T) {
	// gemm is a clear GPU win; mvt1 mispredicts on the 4-thread host in
	// test mode, so the calibrated side has a flip to find.
	r, _ := NewRunner(fastOptions("gemm", "mvt1", "gesummv", "2dconv"))
	res, err := r.AuditStudy(polybench.Test, 4, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.RegretCorrected > res.RegretBase {
		t.Errorf("calibration increased total regret: %.9f > %.9f",
			res.RegretCorrected, res.RegretBase)
	}
	if geo, geoCal := res.GeoSpeedups(); geoCal < geo {
		t.Errorf("calibration lowered the geomean: %.4f < %.4f", geoCal, geo)
	}
	var flipped, mispredicted bool
	for _, row := range res.Rows {
		// Per-kernel: at rate 1 a kernel's calibrated regret can never
		// exceed its uncalibrated regret.
		if row.Corrected.Regret > row.Base.Regret {
			t.Errorf("%s: calibrated regret %.9f > uncalibrated %.9f",
				row.Kernel, row.Corrected.Regret, row.Base.Regret)
		}
		if row.Base.Seconds <= 0 || row.Corrected.Seconds <= 0 {
			t.Errorf("%s: empty totals %+v", row.Kernel, row)
		}
		if row.Corrected.Flip > 0 {
			flipped = true
		}
		if row.Base.Wrong > 0 {
			mispredicted = true
		}
	}
	if !mispredicted {
		t.Skip("no kernel mispredicts under the fast simulators; " +
			"pick a different test point")
	}
	if !flipped {
		t.Error("a kernel mispredicted but calibration never flipped it")
	}
	// Every distinct kernel point was audited exactly once at rate 1.
	if res.Report.Samples != 4 {
		t.Errorf("audited %d kernels, want 4", res.Report.Samples)
	}

	out := RenderAudit(res)
	for _, want := range []string{
		"Shadow-audit calibration", "with calibration (geomean)",
		"total regret", "shadow-audit report",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestAuditStudyZeroRate checks the degenerate study: nothing sampled,
// both variants identical.
func TestAuditStudyZeroRate(t *testing.T) {
	r, _ := NewRunner(fastOptions("gemm", "mvt1"))
	res, err := r.AuditStudy(polybench.Test, 4, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Samples != 0 {
		t.Fatalf("rate 0 audited %d points", res.Report.Samples)
	}
	if geo, geoCal := res.GeoSpeedups(); geoCal != geo || res.RegretCorrected != res.RegretBase {
		t.Fatalf("rate 0 changed behaviour: %+v", res)
	}
	for _, row := range res.Rows {
		if row.Corrected.Flip > 0 {
			t.Fatalf("%s flipped without any audit", row.Kernel)
		}
	}
}

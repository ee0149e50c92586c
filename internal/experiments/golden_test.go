package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/hybridsel/hybridsel/internal/polybench"
)

var update = flag.Bool("update", false, "rewrite the golden study renders")

// TestGoldenRenders pins what the studies print — Figures 6/7, Figure 8,
// the shadow-audit study at rate 1 and rate 0, and the residual-learner
// study — at fastOptions fidelity on the kernels the other tests use, in
// both dataset modes. A refactor leaves the files byte-identical; -update
// is only for an intended change of a table.
func TestGoldenRenders(t *testing.T) {
	const threads = 4
	for _, m := range []polybench.Mode{polybench.Test, polybench.Benchmark} {
		r, err := NewRunner(fastOptions("gemm", "mvt1", "gesummv", "2dconv"))
		if err != nil {
			t.Fatal(err)
		}
		fig, err := r.Figure(m, threads)
		if err != nil {
			t.Fatal(err)
		}
		golden(t, "figure_"+m.String()+".txt", RenderFigure(fig, m, threads))

		fig8, err := r.Figure8(m)
		if err != nil {
			t.Fatal(err)
		}
		golden(t, "figure8_"+m.String()+".txt", RenderFigure8(fig8))

		for _, rate := range []struct {
			name string
			rate float64
		}{{"rate1", 1}, {"rate0", 0}} {
			aud, err := r.AuditStudy(m, threads, 3, rate.rate)
			if err != nil {
				t.Fatal(err)
			}
			golden(t, "audit_"+rate.name+"_"+m.String()+".txt", RenderAudit(aud))
		}

		lrn, err := r.LearnStudy(m, threads, 3, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		golden(t, "learn_"+m.String()+".txt", RenderLearn(lrn))
	}
}

// golden compares got with testdata/golden/<name> byte for byte.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden render:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

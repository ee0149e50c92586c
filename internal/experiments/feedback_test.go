package experiments

import (
	"testing"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/polybench"
)

// TestStudiesSimulateEachCellOnce is the law of the one ground-truth
// memo: however many variants, rounds and studies read a (kernel, point,
// target) cell, it is simulated once, on the runner's shared runtime; the
// variants' private runtimes only decide.
func TestStudiesSimulateEachCellOnce(t *testing.T) {
	const threads, rounds, points = 4, 2, 3
	r, _ := NewRunner(fastOptions("gemm", "mvt1", "gesummv"))
	studies := func() {
		t.Helper()
		if _, err := r.AuditStudy(polybench.Test, threads, rounds, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := r.LearnStudy(polybench.Test, threads, rounds, points, 1); err != nil {
			t.Fatal(err)
		}
	}
	studies()

	rt, err := r.runtime(machine.PlatformP9V100(), threads)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]bool{}
	for _, k := range r.Kernels() {
		for _, b := range append(learnPoints(k, polybench.Test, points), k.Bindings(polybench.Test)) {
			distinct[k.Name+"/"+attrdb.BindingsKey(b)] = true
		}
	}
	cells := uint64(len(distinct) * rt.Targets().Len())

	m := r.Metrics()
	if m.ExecCacheMisses != cells {
		t.Errorf("%d simulations for %d (kernel, point, target) cells", m.ExecCacheMisses, cells)
	}
	// Two variants per study decide every point every round, and nothing
	// else: no launch, no simulation on a variant's runtime.
	decides := uint64(len(r.Kernels()) * rounds * 2 * (1 + points))
	if d := r.decided; d.Decides != decides || d.Launches != 0 || d.ExecCacheMisses != 0 || d.ExecCacheHits != 0 {
		t.Errorf("variant runtimes: %d decides (want %d), %d launches, %d+%d executions",
			d.Decides, decides, d.Launches, d.ExecCacheMisses, d.ExecCacheHits)
	}

	studies()
	if again := r.Metrics().ExecCacheMisses; again != cells {
		t.Errorf("rerunning the studies simulated %d more cells", again-cells)
	}
}

// Split execution: cooperative CPU+GPU execution of one parallel loop.
// The paper's introduction motivates target selection with work that
// splits computations across both processors (Valero-Lara et al.); the
// Split policy uses the two analytical models to find the host/device
// share at which both sides finish together.
//
//	go run ./examples/splitexecution
package main

import (
	"fmt"
	"log"

	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/stats"
)

func main() {
	rt := offload.NewRuntime(offload.Config{
		Platform: machine.PlatformP9V100(),
		Policy:   offload.Split,
	})
	// mvt2 at benchmark size is nearly balanced between host and device
	// — the interesting case; gemm and gesummv are lopsided and should
	// degenerate to a single target.
	regions := map[string]*offload.Region{}
	for _, name := range []string{"mvt2", "atax2", "gemm", "gesummv"} {
		k, err := polybench.Get(name)
		if err != nil {
			log.Fatal(err)
		}
		if regions[name], err = rt.Register(k.IR); err != nil {
			log.Fatal(err)
		}
	}

	t := stats.NewTable("Cooperative split execution (POWER9 + V100, benchmark mode)",
		"kernel", "decision", "host share", "cpu-only", "gpu-only", "executed")
	for _, name := range []string{"mvt2", "atax2", "gemm", "gesummv"} {
		k, _ := polybench.Get(name)
		b := k.Bindings(polybench.Benchmark)
		r := regions[name]
		out, err := r.Launch(b)
		if err != nil {
			log.Fatal(err)
		}
		cpuOnly, err := r.ExecuteTarget(offload.TargetIDCPUBase, b)
		if err != nil {
			log.Fatal(err)
		}
		gpuOnly, err := r.ExecuteTarget(offload.TargetIDGPUBase, b)
		if err != nil {
			log.Fatal(err)
		}
		share := "-"
		if out.Target == offload.KindSplit {
			share = fmt.Sprintf("%.0f%%", out.SplitFraction*100)
		}
		t.AddRow(name, out.Target.String(), share,
			fmt.Sprintf("%.3gs", cpuOnly), fmt.Sprintf("%.3gs", gpuOnly),
			fmt.Sprintf("%.3gs", out.ActualSeconds))
	}
	fmt.Println(t.String())
	fmt.Println("When host and device times are close, splitting the " +
		"iteration space beats either target alone; when one side " +
		"dominates, the policy degenerates to single-target selection.")
}

// Adaptive sizes: the motivating scenario for runtime (rather than
// compile-time) target selection. The same matrix-multiply region is
// launched with growing problem sizes; the selector keeps small instances
// on the host — where fork/transfer overheads would dominate a GPU launch
// — and offloads once the computation amortizes them.
//
//	go run ./examples/adaptivesizes
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
		Policy:   offload.ModelGuided,
	})
	gemm, err := polybench.Get("gemm")
	if err != nil {
		log.Fatal(err)
	}
	region, err := rt.Register(gemm.IR)
	if err != nil {
		log.Fatal(err)
	}

	t := stats.NewTable(
		"gemm: model-guided target across problem sizes (POWER9 + V100)",
		"n", "pred cpu", "pred gpu", "target", "executed")
	var flipped string
	prev := offload.KindCPU
	for _, n := range []int64{16, 32, 64, 128, 256, 512, 1024, 2048} {
		out, err := region.Launch(map[string]int64{"n": n})
		if err != nil {
			log.Fatal(err)
		}
		predCPU, predGPU := out.BasePair()
		t.AddRow(fmt.Sprint(n),
			fmt.Sprintf("%.3gs", predCPU),
			fmt.Sprintf("%.3gs", predGPU),
			out.Target.String(),
			fmt.Sprintf("%.3gs", out.ActualSeconds))
		if out.Target == offload.KindGPU && prev == offload.KindCPU && flipped == "" {
			flipped = fmt.Sprintf("selector crosses over to the GPU at n=%d", n)
		}
		prev = out.Target
	}
	fmt.Println(t.String())
	if flipped == "" {
		flipped = "no crossover in this size range"
	}
	fmt.Println(flipped)
	fmt.Println("\nThis is why the decision needs runtime values: a 16x16 " +
		"multiply makes no sense on a GPU, a 2048x2048 one very much does " +
		"(paper Section V-B).")
}

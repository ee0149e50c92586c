// Quickstart: register one OpenMP-style target region with the offloading
// runtime and let the hybrid analytical selector decide where it runs.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
)

func main() {
	// A POWER9 host with a Tesla V100 over NVLink 2 — the paper's
	// primary experimental platform.
	rt := offload.NewRuntime(offload.Config{
		Platform: machine.PlatformP9V100(),
		Policy:   offload.ModelGuided,
	})

	// "Compile" the GEMM target region: the runtime outlines it, runs
	// the static analyses (instruction loadout, IPDA strides) and stores
	// them in the program attribute database, returning a region handle.
	gemm, err := polybench.Get("gemm")
	if err != nil {
		log.Fatal(err)
	}
	region, err := rt.Register(gemm.IR)
	if err != nil {
		log.Fatal(err)
	}

	// "Run" the program: on reaching the region the runtime binds the
	// runtime values (n), completes both analytical models (memoizing the
	// decision per bindings), and dispatches to the faster predicted
	// target.
	for _, n := range []int64{128, 1100, 4096, 4096} {
		out, err := region.Launch(map[string]int64{"n": n})
		if err != nil {
			log.Fatal(err)
		}
		predCPU, predGPU := out.BasePair()
		fmt.Printf("n=%-5d -> %s   predicted cpu %.3gs gpu %.3gs   executed %.3gs   (decision %v, cached %v)\n",
			n, out.Target, predCPU, predGPU,
			out.ActualSeconds, out.DecisionOverhead, out.CacheHit)
	}

	// Every stage is instrumented.
	fmt.Println()
	fmt.Print(rt.Metrics())
}

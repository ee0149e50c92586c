// Custom kernel: build the paper's running example —
//
//	#pragma omp teams distribute parallel for
//	for (int a = 0; a < max; a++)
//	    A[max * a] = 2.0 * A[max * a];
//
// — in the IR, run the Iteration Point Difference Analysis on it, and
// watch the symbolic stride [max] resolve to opposite coalescing verdicts
// (and opposite target decisions) for different runtime values of max.
//
//	go run ./examples/customkernel
package main

import (
	"fmt"
	"log"

	"github.com/hybridsel/hybridsel/internal/ipda"
	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

func main() {
	max := ir.V("max")
	kernel := &ir.Kernel{
		Name:   "paper-example",
		Params: []string{"max"},
		Arrays: []*ir.Array{ir.Arr("A", ir.F64, max.Mul(max))},
		Body: []ir.Stmt{
			ir.ParFor("a", ir.N(0), max,
				ir.Store(ir.R("A", max.Mul(ir.V("a"))),
					ir.FMul(ir.F(2), ir.Ld("A", max.Mul(ir.V("a")))))),
		},
	}
	if err := kernel.Validate(); err != nil {
		log.Fatal(err)
	}

	// Static analysis: the stride is the symbolic expression [max].
	res, err := ipda.Analyze(kernel, ir.DefaultCountOptions())
	if err != nil {
		log.Fatal(err)
	}
	site := res.Sites[len(res.Sites)-1]
	fmt.Printf("IPD_thread(%s) = %s   (symbolic, resolved at runtime)\n\n",
		site.Access.Ref, site.ThreadStride)

	rt := offload.NewRuntime(offload.Config{
		Platform: machine.PlatformP9V100(),
		Policy:   offload.ModelGuided,
	})
	region, err := rt.Register(kernel)
	if err != nil {
		log.Fatal(err)
	}

	// Case 1 of the paper: max known -> stride resolves statically-like.
	// Contiguous when max == 1; a strided scatter as max grows.
	for _, m := range []int64{1, 4, 4096} {
		b := symbolic.Bindings{"max": m}
		wa, err := site.ResolveGPU(b, ipda.DefaultWarpGeom())
		if err != nil {
			log.Fatal(err)
		}
		out, err := region.Launch(b)
		if err != nil {
			log.Fatal(err)
		}
		predCPU, predGPU := out.BasePair()
		fmt.Printf("max=%-5d stride=%5d elems  class=%-11s tx/warp=%-2d -> run on %s (pred cpu %.3gs, gpu %.3gs)\n",
			m, wa.ByteStride/8, wa.Class, wa.Transactions, out.Target, predCPU, predGPU)
	}
}

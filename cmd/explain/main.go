// Command explain prints the full white-box reasoning behind one target
// selection: the kernel pseudocode, the IPDA access analysis, every
// registered target's model breakdown (Region.Terms), the ranked verdict
// over them, and the decision the offload runtime actually takes (with its
// ground-truth validation launch and instrumentation). This is the
// transparency argument of the paper made concrete — every term of the
// decision is inspectable, unlike an ML model's inference.
//
// Usage:
//
//	explain -kernel 2dconv -n 9600
//	explain -kernel gemm -n 1100 -threads 4 -platform p8k80
//	explain -kernel gemm -launch=false    # models only, no simulation
//	explain -kernel gemm -targets synthetic   # rank an N-way registry
//	explain -kernel gemm -learn-snapshot w.json  # learned corrections per target
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"github.com/hybridsel/hybridsel/internal/ipda"
	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/learn"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/symbolic"
)

func main() {
	kernel := flag.String("kernel", "gemm", "kernel name")
	n := flag.Int64("n", 1100, "problem size")
	threads := flag.Int("threads", 160, "host threads")
	platform := flag.String("platform", "p9v100", "platform: p9v100|p8k80")
	launch := flag.Bool("launch", true,
		"dispatch the region through the runtime and simulate the chosen target")
	targets := flag.String("targets", "classic",
		"target registry: classic|synthetic|comma-separated IDs (e.g. cpu/base,gpu/base,gpu/prev)")
	learnSnap := flag.String("learn-snapshot", "",
		"show each target's learned residual correction from this learner snapshot (see hybridseld -learn-out)")
	flag.Parse()

	plat, err := machine.ParsePlatform(*platform)
	if err != nil {
		fatal(err)
	}

	k, err := polybench.Get(*kernel)
	if err != nil {
		fatal(err)
	}
	b := symbolic.Bindings{"n": *n}

	reg, err := offload.ParseTargets(plat, *threads, *targets)
	if err != nil {
		fatal(err)
	}
	rt := offload.NewRuntime(offload.Config{Platform: plat, Threads: *threads, Targets: reg})
	region, err := rt.Register(k.IR)
	if err != nil {
		fatal(err)
	}

	fmt.Println("=== Target region ===")
	fmt.Print(region.Kernel.Print())

	an := region.Analysis
	sum, err := an.GPUCoalescing(b, ipda.WarpGeom{
		WarpSize: plat.GPU.WarpSize, TransactionBytes: plat.GPU.L2.LineBytes})
	if err != nil {
		fatal(err)
	}
	fmt.Println("\n=== IPDA ===")
	for i := range an.Sites {
		s := &an.Sites[i]
		stride := s.ThreadStride.String()
		if !s.ThreadAffine {
			stride = "(non-affine)"
		}
		wa, _ := s.ResolveGPU(b, ipda.DefaultWarpGeom())
		fmt.Printf("  %-16s %-5s IPD_thread = %-10s -> %s\n",
			s.Access.Ref, s.Access.Kind, stride, wa.Class)
	}
	fmt.Printf("  weighted coalesced fraction: %.0f%%   vectorizable on host: %v\n",
		sum.CoalescedFraction()*100, an.Vectorizable(b))

	load := ir.Count(k.IR, ir.CountOptions{}.ForLaunch(k.IR, b))
	fmt.Println("\n=== Instruction loadout (per work item, hybrid counting) ===")
	fmt.Printf("  fp add/mul/div/special: %.0f/%.0f/%.0f/%.0f   int %.0f   loads %.0f   stores %.0f\n",
		load.FPAdd, load.FPMul, load.FPDiv, load.FPSpecial,
		load.IntOps, load.Loads, load.Stores)

	// The ranked verdict over every registered target, printed below the
	// breakdowns of the seconds it ranks.
	cands, err := region.PredictTargets(b)
	if err != nil {
		fatal(err)
	}
	terms, err := region.Terms(b)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n=== %s, %d host threads ===\n", plat.Name, *threads)
	for i, t := range terms {
		if i > 0 {
			fmt.Println()
		}
		if t.CPU != nil {
			fmt.Print(t.CPU.Format())
		} else {
			fmt.Print(t.GPU.Format())
		}
	}
	// Offloading has a speedup only where there is a host to leave and a
	// device to go to. The pair is read off the ranking by registration
	// order (BasePair's rule), not by rank: cpu/smt2 or gpu/prev may
	// outrank a base target.
	speedup := ""
	if cpuSec, gpuSec := (&offload.Decision{Candidates: cands}).BasePair(); cpuSec > 0 && gpuSec > 0 {
		speedup = fmt.Sprintf("predicted speedup of offloading: %.2fx\n", cpuSec/gpuSec)
	}

	// The decision feature vector — what a residual learner regresses
	// over (see internal/learn).
	feat, err := region.Features(b)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n=== Decision features ===\n")
	fmt.Printf("  iterations %d   transfer bytes %d   coalesced fraction %.2f\n",
		feat.Iterations, feat.TransferBytes, feat.CoalescedFrac)

	var lrn *learn.Learner
	if *learnSnap != "" {
		f, err := os.Open(*learnSnap)
		if err != nil {
			fatal(err)
		}
		s, err := learn.ReadSnapshot(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		lrn = learn.New(learn.Config{})
		if err := lrn.Restore(s); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("\n=== Target ranking (%d registered, ascending predicted time) ===\n",
		len(cands))
	for i, c := range cands {
		marker := "   "
		if i == 0 {
			marker = "-> "
		}
		fmt.Printf("  %s%d. %-10s %-4s %.4gs",
			marker, i+1, c.Target, c.Kind.String(), c.PredSeconds)
		if lrn != nil {
			mult, learned := lrn.Multiplier(k.Name, c.Target, c.PredSeconds, feat)
			src := "below confidence gate, analytical"
			if learned {
				src = fmt.Sprintf("corrected %.4gs", c.PredSeconds*mult)
			}
			fmt.Printf("   [learned x%.3f: %s]", mult, src)
		}
		fmt.Println()
	}

	if !*launch {
		top := cands[0]
		how := "CPU host"
		if top.Kind == offload.KindGPU {
			how = "GPU offload"
		}
		fmt.Printf("\n=== Decision: %s (%s) ===\n", top.Target, how)
		fmt.Print(speedup)
		return
	}

	// Dispatch through the runtime so the decision shown is the one the
	// service takes, and validate it against the ground-truth simulator.
	out, err := region.Launch(b)
	if err != nil {
		fatal(err)
	}
	how := "CPU host"
	if out.Target == offload.KindGPU {
		how = "GPU offload"
	} else if out.Target == offload.KindSplit {
		how = "cooperative split"
	}
	fmt.Printf("\n=== Decision: %s (%s, policy %s) ===\n",
		out.TargetID, how, out.Policy.Name())
	fmt.Print(speedup)
	fmt.Printf("simulated %v execution: %.4gs  (decision overhead %v)\n",
		out.Target, out.ActualSeconds, out.DecisionOverhead)

	fmt.Println()
	fmt.Print(rt.Metrics())
}

// fatal exits non-zero with a clean, actionable message; the runtime's
// sentinel errors get targeted hints instead of a raw error chain.
func fatal(err error) {
	switch {
	case errors.Is(err, offload.ErrUnknownRegion):
		fmt.Fprintf(os.Stderr, "explain: %v\n", err)
		fmt.Fprintf(os.Stderr, "hint: pass -kernel one of the registered Polybench kernels (see `go run ./cmd/ipda -list` or polybench.Suite()).\n")
	case errors.Is(err, offload.ErrUnboundSymbol):
		fmt.Fprintf(os.Stderr, "explain: %v\n", err)
		fmt.Fprintf(os.Stderr, "hint: the kernel's symbolic attributes need a runtime value this command did not bind; supply the problem size with -n.\n")
	default:
		fmt.Fprintln(os.Stderr, "explain:", err)
	}
	os.Exit(1)
}

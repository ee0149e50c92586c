// Command polybench runs the Polybench suite through the offloading
// runtime under a chosen policy, printing per-kernel decisions, model
// predictions, executed times and the end-of-run policy summary.
//
// Usage:
//
//	polybench -mode test -policy model-guided
//	polybench -mode benchmark -policy always-gpu -threads 160
//	polybench -mode test -policy oracle
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/stats"
)

func main() {
	mode := flag.String("mode", "test", "dataset mode: test|benchmark")
	policy := flag.String("policy", "model-guided",
		"policy: model-guided|always-gpu|always-cpu|oracle|split")
	threads := flag.Int("threads", 160, "host thread count")
	platform := flag.String("platform", "p9v100", "platform: p9v100|p8k80")
	flag.Parse()

	var m polybench.Mode
	switch *mode {
	case "test":
		m = polybench.Test
	case "benchmark":
		m = polybench.Benchmark
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	p, err := offload.ParsePolicy(*policy)
	if err != nil {
		fatal(err)
	}
	plat, err := machine.ParsePlatform(*platform)
	if err != nil {
		fatal(err)
	}

	rt := offload.NewRuntime(offload.Config{
		Platform: plat, Threads: *threads, Policy: p,
	})
	regions := map[string]*offload.Region{}
	for _, k := range polybench.Suite() {
		r, err := rt.Register(k.IR)
		if err != nil {
			fatal(err)
		}
		regions[k.Name] = r
	}

	fmt.Printf("Polybench OpenMP suite — %s mode, %s policy, %s, %d host threads\n\n",
		m, p.Name(), plat.Name, *threads)
	t := stats.NewTable("", "kernel", "target", "executed",
		"pred cpu", "pred gpu", "decision time")
	var total float64
	var overhead time.Duration
	start := time.Now()
	for _, k := range polybench.Suite() {
		out, err := regions[k.Name].Launch(k.Bindings(m))
		if err != nil {
			fatal(err)
		}
		total += out.ActualSeconds
		overhead += out.DecisionOverhead
		predCPU, predGPU := out.BasePair()
		t.AddRow(k.Name, out.Target.String(),
			fmtSec(out.ActualSeconds),
			fmtSec(predCPU), fmtSec(predGPU),
			out.DecisionOverhead.Round(time.Microsecond).String())
	}
	fmt.Println(t.String())
	fmt.Printf("suite executed (simulated) time: %s\n", fmtSec(total))
	fmt.Printf("total selector overhead: %v (wall clock, %d launches)\n",
		overhead.Round(time.Microsecond), len(polybench.Suite()))
	fmt.Printf("driver wall time: %v\n\n", time.Since(start).Round(time.Millisecond))
	fmt.Print(rt.Metrics())
}

func fmtSec(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.1fus", s*1e6)
	}
}

// fatal exits non-zero with a clean, actionable message; the runtime's
// sentinel errors get targeted hints instead of a raw error chain.
func fatal(err error) {
	switch {
	case errors.Is(err, offload.ErrUnknownRegion):
		fmt.Fprintf(os.Stderr, "polybench: %v\n", err)
		fmt.Fprintf(os.Stderr, "hint: the kernel is not registered with the runtime; the driver registers polybench.Suite(), so this usually means a stale or misspelled kernel name.\n")
	case errors.Is(err, offload.ErrUnboundSymbol):
		fmt.Fprintf(os.Stderr, "polybench: %v\n", err)
		fmt.Fprintf(os.Stderr, "hint: the dataset mode did not bind every symbolic parameter the kernel's attributes need; check the kernel's Bindings(mode) table.\n")
	default:
		fmt.Fprintln(os.Stderr, "polybench:", err)
	}
	os.Exit(1)
}

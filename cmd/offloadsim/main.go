// Command offloadsim regenerates the paper's evaluation artifacts: the
// cross-generation offloading study (Table I), the model parameter tables
// (Tables II and III), the actual-vs-predicted studies (Figures 6 and 7),
// the policy comparison (Figure 8), and the ablation studies.
//
// Usage:
//
//	offloadsim -exp all
//	offloadsim -exp table1
//	offloadsim -exp fig6
//	offloadsim -exp fig8 -threads 160
//	offloadsim -exp ablations
//	offloadsim -exp audit -rounds 3 -audit-rate 1
//	offloadsim -exp learn -rounds 3 -points 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/hybridsel/hybridsel/internal/epcc"
	"github.com/hybridsel/hybridsel/internal/experiments"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/polybench"
)

func main() {
	exp := flag.String("exp", "all",
		"experiment: table1|table2|table3|fig6|fig7|fig8|ablations|audit|learn|all")
	threads := flag.Int("threads", 4,
		"host thread count for the fig6/fig7 and audit comparisons")
	parallel := flag.Int("parallel", 0, "simulation parallelism (0 = NumCPU)")
	rounds := flag.Int("rounds", 3, "launches per kernel in the audit and learn studies")
	points := flag.Int("points", 4,
		"distinct problem sizes per kernel in the learn study")
	auditRate := flag.Float64("audit-rate", 1,
		"shadow-audit sampling rate for the audit and learn studies")
	metrics := flag.Bool("metrics", false,
		"print aggregated offload-runtime instrumentation after the runs")
	flag.Parse()

	r, err := experiments.NewRunner(experiments.Options{Parallelism: *parallel})
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	var names []string // every experiment run() was offered
	ran := false
	run := func(name string, f func() error) {
		names = append(names, name)
		if *exp != "all" && *exp != name {
			return
		}
		ran = true
		t0 := time.Now()
		if err := f(); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	run("table1", func() error {
		rows, err := r.Table1()
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderTable1(rows))
		return nil
	})

	run("table2", func() error {
		cpu := machine.POWER9()
		m, err := epcc.Measure(cpu, 20)
		if err != nil {
			return err
		}
		fmt.Println(epcc.Table2(cpu, m))
		return nil
	})

	run("table3", func() error {
		fmt.Println(experiments.RenderTable3(machine.TeslaV100(), machine.NVLink2()))
		fmt.Println(experiments.RenderTable3(machine.TeslaK80(), machine.PCIe3()))
		return nil
	})

	run("fig6", func() error {
		rows, err := r.Figure(polybench.Test, *threads)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFigure(rows, polybench.Test, *threads))
		return nil
	})

	run("fig7", func() error {
		rows, err := r.Figure(polybench.Benchmark, *threads)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFigure(rows, polybench.Benchmark, *threads))
		return nil
	})

	run("fig8", func() error {
		for _, m := range []polybench.Mode{polybench.Test, polybench.Benchmark} {
			res, err := r.Figure8(m)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderFigure8(res))
		}
		return nil
	})

	run("audit", func() error {
		for _, m := range []polybench.Mode{polybench.Test, polybench.Benchmark} {
			res, err := r.AuditStudy(m, *threads, *rounds, *auditRate)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderAudit(res))
			fmt.Println()
		}
		return nil
	})

	run("learn", func() error {
		for _, m := range []polybench.Mode{polybench.Test, polybench.Benchmark} {
			res, err := r.LearnStudy(m, *threads, *rounds, *points, *auditRate)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderLearn(res))
			fmt.Println()
		}
		return nil
	})

	run("ablations", func() error {
		for _, ab := range []struct {
			title    string
			variants []experiments.Variant
		}{
			{"Ablation: coalescing source (paper Section IV-C)", experiments.CoalescingVariants()},
			{"Ablation: cycles-per-iteration estimator (Section IV-A.1)", experiments.CPIVariants()},
			{"Ablation: #OMP_Rep grid-coverage factor (Section IV-B)", experiments.OMPRepVariants()},
			{"Ablation: static 128-iteration/50%-branch assumptions", experiments.AssumptionVariants()},
		} {
			rows, err := r.Ablate(polybench.Benchmark, 160, ab.variants)
			if err != nil {
				return err
			}
			fmt.Println(experiments.RenderAblation(ab.title, rows))
			fmt.Println()
		}
		return nil
	})

	if !ran {
		fmt.Fprintf(os.Stderr, "offloadsim: unknown experiment %q (valid: %s, all)\n",
			*exp, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *metrics {
		fmt.Println(r.Metrics())
	}
	fmt.Printf("total %v\n", time.Since(start).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "offloadsim:", err)
	os.Exit(1)
}

package gpumodel

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/hybridsel/hybridsel/internal/ipda"
	"github.com/hybridsel/hybridsel/internal/ir"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/polybench"
)

var update = flag.Bool("update", false, "rewrite the golden prediction fixture")

// goldenColumns names the fields of a Prediction in the order goldenRow
// prints them.
func goldenColumns(p any) string {
	t := reflect.TypeOf(p)
	names := make([]string, t.NumField())
	for i := range names {
		names[i] = t.Field(i).Name
	}
	return strings.Join(names, " ")
}

// goldenRow prints every field of a Prediction exactly: floats as hex
// floating point (the bits, readable), the rest in decimal.
func goldenRow(p any) string {
	v := reflect.ValueOf(p)
	fields := make([]string, v.NumField())
	for i := range fields {
		if f := v.Field(i); f.Kind() == reflect.Float64 {
			fields[i] = fmt.Sprintf("%x", f.Float())
		} else {
			fields[i] = fmt.Sprint(f.Interface())
		}
	}
	return strings.Join(fields, " ")
}

// TestGoldenPredictions pins the model's numeric output: the whole
// Prediction of Predict for every Polybench kernel, platform, dataset mode
// and split fraction under the default options, and at one fraction under
// each ablation option that takes a different branch of the model. A change
// to a model term shows up as a reviewed diff of the fixture (regenerate
// with -update); a refactor leaves it byte-identical.
func TestGoldenPredictions(t *testing.T) {
	variants := []struct {
		name  string
		fracs []float64
		set   func(in *Input)
	}{
		{"default", []float64{0, 0.25, 0.62}, func(*Input) {}},
		{"all-coalesced", []float64{0.25}, func(in *Input) { in.Options.Coalescing = AssumeAllCoalesced }},
		{"all-uncoalesced", []float64{0.25}, func(in *Input) { in.Options.Coalescing = AssumeAllUncoalesced }},
		{"no-ipda", []float64{0.25}, func(in *Input) { in.IPDA, in.Options.Coalescing = nil, AssumeAllCoalesced }},
		{"no-omp-rep", []float64{0.25}, func(in *Input) { in.Options.OMPRep = false }},
		{"no-cache-aware", []float64{0.25}, func(in *Input) { in.Options.CacheAware = false }},
		{"no-transfer", []float64{0.25}, func(in *Input) { in.Options.IncludeTransfer = false }},
	}
	platforms := []struct {
		name string
		machine.Platform
	}{{"p9v100", machine.PlatformP9V100()}, {"p8k80", machine.PlatformP8K80()}}
	var out strings.Builder
	fmt.Fprintf(&out, "# kernel platform mode variant fraction: %s\n", goldenColumns(Prediction{}))
	for _, pk := range polybench.Suite() {
		an, err := ipda.Analyze(pk.IR, ir.DefaultCountOptions())
		if err != nil {
			t.Fatalf("%s: ipda: %v", pk.Name, err)
		}
		for _, plat := range platforms {
			for _, mode := range []polybench.Mode{polybench.Test, polybench.Benchmark} {
				for _, v := range variants {
					for _, frac := range v.fracs {
						in := Input{Kernel: pk.IR, GPU: plat.GPU, Link: plat.Link, Bindings: pk.Bindings(mode),
							IPDA: an, Options: DefaultOptions(), IterFraction: frac}
						v.set(&in)
						p, err := Predict(in)
						if err != nil {
							t.Fatalf("%s on %s (%s, %s, frac=%g): %v", pk.Name, plat.name, mode, v.name, frac, err)
						}
						fmt.Fprintf(&out, "%s %s %s %s %g: %s\n", pk.Name, plat.name, mode, v.name, frac, goldenRow(p))
					}
				}
			}
		}
	}
	path := filepath.Join("testdata", "golden", "predictions.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d prediction rows, fixture has %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("row %d:\n got  %s\n want %s", i+1, got[i], wantLines[i])
		}
	}
}

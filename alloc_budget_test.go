//go:build !race

package hybridsel

import (
	"flag"
	"testing"

	"github.com/hybridsel/hybridsel/internal/offload"
)

// TestAllocationBudgets holds the decide, serve and register benchmarks to their
// allocations per operation, the one number they report that does not
// depend on the machine (timing claims are made against bench/, see
// BENCHMARK.json). Each body runs a fixed number of iterations, enough to
// amortise what a connection or a cache allocates once. The budgets are what
// the code costs today; the HTTP rows carry a few allocations of slack for
// what net/http pools or does not from run to run. Not built under the race
// detector, where sync.Pool drops a quarter of what it is given.
func TestAllocationBudgets(t *testing.T) {
	benchtime := flag.Lookup("test.benchtime")
	defer benchtime.Value.Set(benchtime.Value.String())
	for _, c := range []struct {
		name   string
		bench  func(*testing.B)
		iters  string
		budget int64
	}{
		{"DecideCached", BenchmarkDecideCached, "1000x", 1},
		{"DecideCachedParallel", BenchmarkDecideCachedParallel, "1000x", 1},
		{"DecideMiss", BenchmarkDecideMiss, "1000x", 0},
		{"DecideColdCycle", BenchmarkDecideColdCycle, "2000x", 0},
		{"ServeJSONSingle", BenchmarkServeJSONSingle, "200x", 130},
		{"ServeBinarySingle", BenchmarkServeBinarySingle, "200x", 110},
		{"ServeJSONBatch64", BenchmarkServeJSONBatch64, "200x", 810},
		// Measured 105 with the response decoded: DecodeFrame's pooled
		// intern table keeps its names from the frame before.
		{"ServeBinaryBatch64", BenchmarkServeBinaryBatch64, "200x", 110},
		// The Response and Candidates a stream caller keeps are cuts of the
		// read loop's slabs: a few hundredths of an allocation, counted 0.
		{"ServeStreamSingle", BenchmarkServeStreamSingle, "3000x", 0},
		// Measured 2, neither the round trip's: the benchmark starts a
		// goroutine per decision.
		{"ServeStreamPipelined64", BenchmarkServeStreamPipelined64, "6400x", 2},
		// The ring repeats, so nearly every decision is a leased hit, whose
		// copy the caller keeps is cut from slabs: a few hundredths of an
		// allocation, counted 0.
		{"ServeCluster", BenchmarkServeCluster, "3000x", 0},
		// One runtime registering the 24 Polybench regions: measured
		// 15 963 and 16 914 allocations.
		{"RegisterSuite/classic", registerSuite(offload.ClassicPair), "5x", 16050},
		{"RegisterSuite/synthetic", registerSuite(offload.SyntheticTargets), "5x", 17000},
	} {
		if err := benchtime.Value.Set(c.iters); err != nil {
			t.Fatal(err)
		}
		r := testing.Benchmark(c.bench)
		if r.N == 0 {
			t.Fatalf("%s: the benchmark failed", c.name)
		}
		if got := r.AllocsPerOp(); got > c.budget {
			t.Errorf("%s: %d allocs/op (%d over %d iterations), budget %d",
				c.name, got, r.MemAllocs, r.N, c.budget)
		}
	}
}

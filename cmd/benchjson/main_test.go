package main

import (
	"strings"
	"testing"
)

// TestParseKeepsMedianSample: a -count=3 run collapses to one line per
// benchmark, the median by ns/op with that run's other metrics.
func TestParseKeepsMedianSample(t *testing.T) {
	const out = `goos: linux
cpu: test
BenchmarkServeJSONSingle-2      	    1000	     50000 ns/op	     20000 decisions/s	 100 B/op	 10 allocs/op
BenchmarkServeJSONSingle-2      	    1000	     40000 ns/op	     25000 decisions/s	 100 B/op	 10 allocs/op
BenchmarkServeJSONSingle-2      	    1000	     90000 ns/op	     11111 decisions/s	 100 B/op	 10 allocs/op
BenchmarkServeStreamSingle-2    	    1000	     10000 ns/op	    100000 decisions/s	  50 B/op	  5 allocs/op
BenchmarkServeStreamSingle-2    	    1000	     45000 ns/op	     22222 decisions/s	  50 B/op	  5 allocs/op
BenchmarkServeStreamSingle-2    	    1000	     12500 ns/op	     80000 decisions/s	  50 B/op	  5 allocs/op
BenchmarkPredictCached-2        	    1000	       100 ns/op	   0 B/op	  0 allocs/op
PASS
`
	l, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Benchmarks) != 3 || l.Benchmarks[0].Name != "BenchmarkServeJSONSingle" ||
		l.Benchmarks[0].DecisionsPerSec != 20000 || l.Benchmarks[1].DecisionsPerSec != 80000 ||
		l.Benchmarks[2].NsPerOp != 100 {
		t.Fatalf("benchmarks: %+v", l.Benchmarks)
	}
	if l.Benchmarks[0].AllocsPerOp != 10 || l.Benchmarks[1].AllocsPerOp != 5 {
		t.Fatalf("allocs/op: %+v", l.Benchmarks)
	}
}

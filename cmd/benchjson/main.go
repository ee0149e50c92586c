// Command benchjson turns `go test -bench -benchmem` output into the
// repo's benchmark ledgers (BENCH_decide.json for the decision hot
// path, BENCH_serve.json for end-to-end /v2/decide serving) and gates
// regressions against a committed ledger.
//
// Usage:
//
//	go test -run '^$' -bench 'Predict|Decide' -benchmem . | benchjson -out BENCH_decide.json
//	go test -run '^$' -bench 'Serve' -benchmem . | benchjson -out BENCH_serve.json -min-wire-speedup 2 -min-stream-speedup 3 -min-pipeline-speedup 3
//	... | benchjson -gate BENCH_decide.json          # fail on regression, write nothing
//
// The ledger records per-benchmark ns/op, B/op and allocs/op plus two
// derived, machine-independent headline ratios: how much faster and how
// much leaner the compiled decision path is than the interpreted one on
// the same machine in the same run. Gating compares only what is stable
// across machines — allocation counts (deterministic) and the in-run
// ratios — never raw ns/op, so the check passes on a slow CI box and
// still catches a real regression.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one `go test -bench` result line. The serve benchmarks
// report three custom metrics alongside the standard triple:
// decisions/s (items decided per second, batch-aware) and per-request
// p50/p99 latency in nanoseconds.
type Benchmark struct {
	Name            string  `json:"name"`
	NsPerOp         float64 `json:"nsPerOp"`
	BytesPerOp      float64 `json:"bytesPerOp"`
	AllocsPerOp     float64 `json:"allocsPerOp"`
	DecisionsPerSec float64 `json:"decisionsPerSec,omitempty"`
	P50Ns           float64 `json:"p50Ns,omitempty"`
	P99Ns           float64 `json:"p99Ns,omitempty"`
}

// Summary holds the derived headline numbers.
type Summary struct {
	// GeomeanNsPerOp is the geometric mean ns/op over every benchmark —
	// a single machine-local trend number for eyeballing a diff.
	GeomeanNsPerOp float64 `json:"geomeanNsPerOp"`
	// UncachedSpeedup = interpreted ns/op ÷ compiled ns/op for one
	// uncached model-pair evaluation (same machine, same run).
	UncachedSpeedup float64 `json:"uncachedSpeedup"`
	// UncachedAllocsRatio = interpreted allocs/op ÷ compiled allocs/op.
	UncachedAllocsRatio float64 `json:"uncachedAllocsRatio"`
	// CachedVsUncachedNs = uncached compiled ns/op ÷ cached ns/op: what
	// the decision cache still buys over the compiled models.
	CachedVsUncachedNs float64 `json:"cachedVsUncachedNs"`

	// Serving headline ratios (BENCH_serve.json only): binary-frame
	// decisions/s ÷ JSON decisions/s on the same machine in the same
	// run, for single-request and 64-item-batch calls.
	BinaryVsJSONSingle  float64 `json:"binaryVsJsonSingle,omitempty"`
	BinaryVsJSONBatched float64 `json:"binaryVsJsonBatched,omitempty"`
	// StreamVsJSONSingle = persistent-stream single-in-flight
	// decisions/s ÷ JSON single decisions/s — what killing per-request
	// HTTP overhead buys the decide path on this machine in this run.
	StreamVsJSONSingle float64 `json:"streamVsJsonSingle,omitempty"`
	// StreamPipelinedVsSingle = 64-in-flight stream decisions/s ÷
	// single-in-flight stream decisions/s on one connection — what
	// pipelining buys once both ends write once per burst.
	StreamPipelinedVsSingle float64 `json:"streamPipelinedVsSingle,omitempty"`
}

// Ledger is the BENCH_decide.json schema.
type Ledger struct {
	Note       string      `json:"note"`
	Go         string      `json:"go,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Summary    Summary     `json:"summary"`
}

const (
	uncachedName    = "BenchmarkPredictUncached"
	interpretedName = "BenchmarkPredictUncachedInterpreted"
	cachedName      = "BenchmarkPredictCached"

	serveJSONSingle   = "BenchmarkServeJSONSingle"
	serveBinarySingle = "BenchmarkServeBinarySingle"
	serveJSONBatch    = "BenchmarkServeJSONBatch64"
	serveBinaryBatch  = "BenchmarkServeBinaryBatch64"
	serveStreamSingle = "BenchmarkServeStreamSingle"
	serveStreamPiped  = "BenchmarkServeStreamPipelined64"
)

func main() {
	out := flag.String("out", "", "write the ledger to this file ('-' = stdout)")
	gate := flag.String("gate", "", "compare against this committed ledger and fail on regression")
	minSpeedup := flag.Float64("min-speedup", 5,
		"minimum compiled-vs-interpreted uncached speedup (the acceptance floor)")
	minAllocsRatio := flag.Float64("min-allocs-ratio", 4,
		"minimum compiled-vs-interpreted allocs/op ratio (the acceptance floor)")
	tolerance := flag.Float64("tolerance", 0.20,
		"allowed relative regression vs the committed ledger")
	minWireSpeedup := flag.Float64("min-wire-speedup", 0,
		"minimum binary-vs-JSON batched decisions/s ratio (0 = no floor; serve ledger only)")
	minStreamSpeedup := flag.Float64("min-stream-speedup", 0,
		"minimum stream-vs-JSON single decisions/s ratio (0 = no floor; serve ledger only)")
	minPipelineSpeedup := flag.Float64("min-pipeline-speedup", 0,
		"minimum stream pipelined-vs-single decisions/s ratio (0 = no floor; serve ledger only)")
	flag.Parse()

	ledger, err := parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(ledger.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin"))
	}

	if ledger.Summary.UncachedSpeedup > 0 && ledger.Summary.UncachedSpeedup < *minSpeedup {
		fatal(fmt.Errorf("uncached speedup %.1fx below the %.1fx floor",
			ledger.Summary.UncachedSpeedup, *minSpeedup))
	}
	if ledger.Summary.UncachedAllocsRatio > 0 && ledger.Summary.UncachedAllocsRatio < *minAllocsRatio {
		fatal(fmt.Errorf("uncached allocs ratio %.1fx below the %.1fx floor",
			ledger.Summary.UncachedAllocsRatio, *minAllocsRatio))
	}
	if *minWireSpeedup > 0 {
		if ledger.Summary.BinaryVsJSONBatched == 0 {
			fatal(fmt.Errorf("-min-wire-speedup set but the run holds no serve benchmarks"))
		}
		if ledger.Summary.BinaryVsJSONBatched < *minWireSpeedup {
			fatal(fmt.Errorf("binary-vs-JSON batched ratio %.2fx below the %.2fx floor",
				ledger.Summary.BinaryVsJSONBatched, *minWireSpeedup))
		}
	}
	if *minStreamSpeedup > 0 {
		if ledger.Summary.StreamVsJSONSingle == 0 {
			fatal(fmt.Errorf("-min-stream-speedup set but the run holds no stream serve benchmarks"))
		}
		if ledger.Summary.StreamVsJSONSingle < *minStreamSpeedup {
			fatal(fmt.Errorf("stream-vs-JSON single ratio %.2fx below the %.2fx floor",
				ledger.Summary.StreamVsJSONSingle, *minStreamSpeedup))
		}
	}

	if *minPipelineSpeedup > 0 {
		if ledger.Summary.StreamPipelinedVsSingle == 0 {
			fatal(fmt.Errorf("-min-pipeline-speedup set but the run holds no stream serve benchmarks"))
		}
		if ledger.Summary.StreamPipelinedVsSingle < *minPipelineSpeedup {
			fatal(fmt.Errorf("stream pipelined-vs-single ratio %.2fx below the %.2fx floor",
				ledger.Summary.StreamPipelinedVsSingle, *minPipelineSpeedup))
		}
	}

	if *gate != "" {
		old, err := readLedger(*gate)
		if err != nil {
			fatal(fmt.Errorf("gate ledger: %w", err))
		}
		if err := compare(old, ledger, *tolerance); err != nil {
			fatal(err)
		}
		if ledger.Summary.BinaryVsJSONBatched > 0 {
			line := fmt.Sprintf("benchjson: no regression vs %s (binary/json batched %.1fx",
				*gate, ledger.Summary.BinaryVsJSONBatched)
			if ledger.Summary.StreamVsJSONSingle > 0 {
				line += fmt.Sprintf(", stream/json single %.1fx", ledger.Summary.StreamVsJSONSingle)
			}
			if ledger.Summary.StreamPipelinedVsSingle > 0 {
				line += fmt.Sprintf(", stream pipelined/single %.1fx", ledger.Summary.StreamPipelinedVsSingle)
			}
			fmt.Fprintln(os.Stderr, line+")")
		} else {
			fmt.Fprintf(os.Stderr, "benchjson: no regression vs %s (speedup %.0fx, allocs ratio %.0fx)\n",
				*gate, ledger.Summary.UncachedSpeedup, ledger.Summary.UncachedAllocsRatio)
		}
	}

	if *out != "" {
		enc, err := json.MarshalIndent(ledger, "", "  ")
		if err != nil {
			fatal(err)
		}
		enc = append(enc, '\n')
		if *out == "-" {
			os.Stdout.Write(enc)
		} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fatal(err)
		}
	}
}

// parse reads `go test -bench` output, keeping the goos/cpu header lines
// and one line per benchmark (see medians).
func parse(f io.Reader) (*Ledger, error) {
	l := &Ledger{Note: "generated by scripts/bench.sh; gated by scripts/check.sh (allocs and in-run ratios only)"}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "cpu:"):
			l.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "goos:") || strings.HasPrefix(line, "goarch:"):
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			l.Benchmarks = append(l.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	l.Benchmarks = medians(l.Benchmarks)
	l.Summary = summarize(l.Benchmarks)
	return l, nil
}

// medians collapses the repeated lines of a -count=N run to one per
// benchmark, in first-appearance order: the sample with the median ns/op
// (the upper of an even count), kept whole so a line's metrics all come
// from one run. A single short sample on a shared box swings enough to
// trip a ratio floor neither side of the ratio moved.
func medians(all []Benchmark) []Benchmark {
	samples := map[string][]Benchmark{}
	var out []Benchmark
	for _, b := range all {
		if samples[b.Name] == nil {
			out = append(out, b)
		}
		samples[b.Name] = append(samples[b.Name], b)
	}
	for i := range out {
		s := samples[out[i].Name]
		sort.Slice(s, func(i, j int) bool { return s[i].NsPerOp < s[j].NsPerOp })
		out[i] = s[len(s)/2]
	}
	return out
}

// parseLine parses one result line:
//
//	BenchmarkPredictUncached-8   429296   761.5 ns/op   8 B/op   1 allocs/op
func parseLine(line string) (Benchmark, error) {
	f := strings.Fields(line)
	b := Benchmark{Name: f[0]}
	if i := strings.LastIndexByte(b.Name, '-'); i > 0 {
		if _, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name = b.Name[:i] // strip the -GOMAXPROCS suffix
		}
	}
	for i := 1; i+1 < len(f); i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		case "decisions/s":
			b.DecisionsPerSec = v
		case "p50-ns":
			b.P50Ns = v
		case "p99-ns":
			b.P99Ns = v
		}
	}
	if b.NsPerOp == 0 {
		return b, fmt.Errorf("unparseable benchmark line: %q", line)
	}
	return b, nil
}

func summarize(benchmarks []Benchmark) Summary {
	var s Summary
	byName := map[string]Benchmark{}
	logSum := 0.0
	for _, b := range benchmarks {
		byName[b.Name] = b
		logSum += math.Log(b.NsPerOp)
	}
	s.GeomeanNsPerOp = math.Exp(logSum / float64(len(benchmarks)))
	comp, okC := byName[uncachedName]
	interp, okI := byName[interpretedName]
	if okC && okI && comp.NsPerOp > 0 {
		s.UncachedSpeedup = interp.NsPerOp / comp.NsPerOp
		if comp.AllocsPerOp > 0 {
			s.UncachedAllocsRatio = interp.AllocsPerOp / comp.AllocsPerOp
		} else if interp.AllocsPerOp > 0 {
			s.UncachedAllocsRatio = interp.AllocsPerOp // compiled path allocation-free
		}
	}
	if cached, ok := byName[cachedName]; ok && okC && cached.NsPerOp > 0 {
		s.CachedVsUncachedNs = comp.NsPerOp / cached.NsPerOp
	}
	s.BinaryVsJSONSingle = serveRatio(byName, serveBinarySingle, serveJSONSingle)
	s.BinaryVsJSONBatched = serveRatio(byName, serveBinaryBatch, serveJSONBatch)
	s.StreamVsJSONSingle = serveRatio(byName, serveStreamSingle, serveJSONSingle)
	s.StreamPipelinedVsSingle = serveRatio(byName, serveStreamPiped, serveStreamSingle)
	return s
}

// serveRatio divides two serve benchmarks' decisions/s (0 when either
// side is absent — the decide ledger has no serve benchmarks).
func serveRatio(byName map[string]Benchmark, binName, jsonName string) float64 {
	bin, okB := byName[binName]
	js, okJ := byName[jsonName]
	if !okB || !okJ || js.DecisionsPerSec <= 0 {
		return 0
	}
	return bin.DecisionsPerSec / js.DecisionsPerSec
}

func readLedger(path string) (*Ledger, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Ledger
	if err := json.Unmarshal(raw, &l); err != nil {
		return nil, err
	}
	if len(l.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: ledger holds no benchmarks", path)
	}
	return &l, nil
}

// compare fails on regressions that are meaningful across machines: an
// allocs/op increase on any shared benchmark, or a drop in the in-run
// speedup ratios, beyond tolerance.
func compare(old, cur *Ledger, tol float64) error {
	curBy := map[string]Benchmark{}
	for _, b := range cur.Benchmarks {
		curBy[b.Name] = b
	}
	for _, ob := range old.Benchmarks {
		cb, ok := curBy[ob.Name]
		if !ok {
			return fmt.Errorf("benchmark %s present in ledger but not in this run", ob.Name)
		}
		if cb.AllocsPerOp > ob.AllocsPerOp*(1+tol)+0.5 {
			return fmt.Errorf("%s: allocs/op regressed %.1f -> %.1f (>%.0f%%)",
				ob.Name, ob.AllocsPerOp, cb.AllocsPerOp, tol*100)
		}
	}
	if old.Summary.UncachedSpeedup > 0 &&
		cur.Summary.UncachedSpeedup < old.Summary.UncachedSpeedup*(1-tol) {
		return fmt.Errorf("uncached speedup regressed %.1fx -> %.1fx (>%.0f%%)",
			old.Summary.UncachedSpeedup, cur.Summary.UncachedSpeedup, tol*100)
	}
	if old.Summary.UncachedAllocsRatio > 0 &&
		cur.Summary.UncachedAllocsRatio < old.Summary.UncachedAllocsRatio*(1-tol) {
		return fmt.Errorf("uncached allocs ratio regressed %.1fx -> %.1fx (>%.0f%%)",
			old.Summary.UncachedAllocsRatio, cur.Summary.UncachedAllocsRatio, tol*100)
	}
	if old.Summary.BinaryVsJSONBatched > 0 &&
		cur.Summary.BinaryVsJSONBatched < old.Summary.BinaryVsJSONBatched*(1-tol) {
		return fmt.Errorf("binary-vs-JSON batched ratio regressed %.2fx -> %.2fx (>%.0f%%)",
			old.Summary.BinaryVsJSONBatched, cur.Summary.BinaryVsJSONBatched, tol*100)
	}
	if old.Summary.StreamVsJSONSingle > 0 &&
		cur.Summary.StreamVsJSONSingle < old.Summary.StreamVsJSONSingle*(1-tol) {
		return fmt.Errorf("stream-vs-JSON single ratio regressed %.2fx -> %.2fx (>%.0f%%)",
			old.Summary.StreamVsJSONSingle, cur.Summary.StreamVsJSONSingle, tol*100)
	}
	if old.Summary.StreamPipelinedVsSingle > 0 &&
		cur.Summary.StreamPipelinedVsSingle < old.Summary.StreamPipelinedVsSingle*(1-tol) {
		return fmt.Errorf("stream pipelined-vs-single ratio regressed %.2fx -> %.2fx (>%.0f%%)",
			old.Summary.StreamPipelinedVsSingle, cur.Summary.StreamPipelinedVsSingle, tol*100)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

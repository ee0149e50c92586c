package metrics

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func write(t *testing.T, s *Set) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestWriteExposition renders one of everything a Set holds and compares
// the bytes: HELP/TYPE once per family in registration order, children
// under their family, Prometheus escaping, integers without an exponent.
func TestWriteExposition(t *testing.T) {
	var (
		s          Set
		plain      Counter
		get, post  Counter
		depth      Gauge
		lat        Histogram
		regionRows = s.Rows("t_region_total", "counter", "Rows by region.")
	)
	s.Counter("t_plain_total", `A counter with a \ and a
newline.`, &plain)
	s.Counter("t_requests_total", "Requests by method.", &get, "method", "GET")
	s.Gauge("t_depth", "Queue depth.", &depth)
	s.GaugeFunc("t_ratio", "A fraction.", func() float64 { return 0.25 })
	s.Counter("t_requests_total", "Requests by method.", &post, "method", `P"O\ST`+"\n")
	s.Histogram("t_seconds", "Latency.", &lat, "path", "/x")
	s.Collect(func() {
		regionRows(3, "region", "gemm")
		regionRows(1.5e-7, "region", "mvt1", "model", "cpu")
	})
	plain.Add(1_000_000)
	get.Add(2)
	depth.Store(-3)
	lat.Observe(1500 * time.Nanosecond)
	lat.Observe(3 * time.Second)

	var want strings.Builder
	want.WriteString(`# HELP t_region_total Rows by region.
# TYPE t_region_total counter
t_region_total{region="gemm"} 3
t_region_total{region="mvt1",model="cpu"} 1.5e-07
# HELP t_plain_total A counter with a \\ and a\nnewline.
# TYPE t_plain_total counter
t_plain_total 1000000
# HELP t_requests_total Requests by method.
# TYPE t_requests_total counter
t_requests_total{method="GET"} 2
t_requests_total{method="P\"O\\ST\n"} 0
# HELP t_depth Queue depth.
# TYPE t_depth gauge
t_depth -3
# HELP t_ratio A fraction.
# TYPE t_ratio gauge
t_ratio 0.25
# HELP t_seconds Latency.
# TYPE t_seconds histogram
`)
	for i, b := range bounds {
		cum := 0
		if b >= 2*time.Microsecond {
			cum = 1
		}
		if b >= 3*time.Second {
			cum = 2
		}
		le := strconv.FormatFloat(b.Seconds(), 'g', -1, 64)
		if i == 0 && le != "1e-06" {
			t.Fatalf("first bound renders as %q", le)
		}
		want.WriteString(`t_seconds_bucket{path="/x",le="` + le + `"} ` + strconv.Itoa(cum) + "\n")
	}
	want.WriteString(`t_seconds_bucket{path="/x",le="+Inf"} 2
t_seconds_sum{path="/x"} 3.0000015
t_seconds_count{path="/x"} 2
`)
	for scrape := 0; scrape < 2; scrape++ { // rows are emitted afresh, not accumulated
		if got := write(t, &s); got != want.String() {
			t.Fatalf("scrape %d:\n got:\n%s\nwant:\n%s", scrape, got, want.String())
		}
	}
	fams, err := Parse(strings.NewReader(want.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 6 || strings.Join(fams[0].Labels, ",") != "region,model" ||
		strings.Join(fams[5].Labels, ",") != "path,le" || fams[2].Help != "Requests by method." || fams[3].Type != "gauge" {
		t.Fatalf("parsed families: %+v", fams)
	}
}

func TestRedeclaringAFamilyDifferentlyPanics(t *testing.T) {
	var s Set
	var c Counter
	s.Counter("t_total", "Help.", &c, "k", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("second declaration with other help did not panic")
		}
	}()
	s.Counter("t_total", "Other help.", &c, "k", "b")
}

// TestLintRejects: one exposition per rule Parse enforces, each a small
// edit of a valid one, plus what ClusterClient.WritePrometheus emitted
// for three replicas before the series moved onto a Set.
func TestLintRejects(t *testing.T) {
	const head = "# HELP h Latency.\n# TYPE h histogram\n"
	cases := []struct{ name, text, want string }{
		{"sample before HELP/TYPE", "a_total 1\n", "not under its own family"},
		{"sample after HELP only", "# HELP a_total A.\na_total 1\n", "not under its own family"},
		{"TYPE without HELP", "# TYPE a_total counter\na_total 1\n", "TYPE without its HELP"},
		{"TYPE twice", "# HELP a A.\n# TYPE a gauge\n# TYPE a gauge\n", "TYPE without its HELP"},
		{"HELP without TYPE", "# HELP a_total A.\n", "has no TYPE"},
		{"unknown type", "# HELP a A.\n# TYPE a summary\n", "unknown type"},
		{"sample of another family", "# HELP a A.\n# TYPE a gauge\nb 1\n", "not under its own family"},
		{"duplicate family", "# HELP a A.\n# TYPE a gauge\na 1\n# HELP b B.\n# TYPE b gauge\n# HELP a A.\n", "duplicate family"},
		{"duplicate sample", "# HELP a A.\n# TYPE a gauge\na{k=\"v\"} 1\na{k=\"v\"} 2\n", "duplicate sample"},
		{"illegal metric name", "# HELP a A.\n# TYPE a gauge\n9a 1\n", "malformed sample"},
		{"illegal name in HELP", "# HELP a-b A.\n", "malformed HELP"},
		{"illegal label name", "# HELP a A.\n# TYPE a gauge\na{0k=\"v\"} 1\n", "malformed sample"},
		{"unquoted label value", "# HELP a A.\n# TYPE a gauge\na{k=v} 1\n", "malformed sample"},
		{"Go %q escape in label value", "# HELP a A.\n# TYPE a gauge\na{k=\"tab\\there\"} 1\n", "malformed sample"},
		{"unescaped quote in label value", "# HELP a A.\n# TYPE a gauge\na{k=\"a\"b\"} 1\n", "malformed sample"},
		{"missing comma between labels", "# HELP a A.\n# TYPE a gauge\na{k=\"v\"j=\"w\"} 1\n", "malformed sample"},
		{"value not a number", "# HELP a A.\n# TYPE a gauge\na one\n", "not a number"},
		{"bare sample of a histogram", head + "h 1\n", "not under its own family"},
		{"buckets not cumulative", head + "h_bucket{le=\"1\"} 2\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n", "not cumulative"},
		{"bounds out of order", head + "h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n", "out of order"},
		{"bucket without le", head + "h_bucket 1\n", "numeric le"},
		{"no +Inf bucket", head + "h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "_count differs"},
		{"_count differs from +Inf", head + "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n", "_count differs"},
		{"no _count", head + "h_bucket{le=\"+Inf\"} 2\nh_sum 1\n", "lacks its +Inf bucket or _count"},
		{"one labelled child incomplete", head + "h_bucket{p=\"a\",le=\"+Inf\"} 1\nh_sum{p=\"a\"} 1\nh_count{p=\"a\"} 1\nh_bucket{p=\"b\",le=\"1\"} 1\n", "lacks its +Inf bucket or _count"},
	}
	parent, err := os.ReadFile("testdata/parent_cluster_client.txt")
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, struct{ name, text, want string }{
		"three replicas, each family three times", string(parent), "duplicate family"})
	for _, c := range cases {
		err := Lint(strings.NewReader(c.text))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
	ok := "# a comment\n\n" + head + "h_bucket{le=\"0.5\"} 0\nh_bucket{le=\"+Inf\"} 2\nh_sum 1.5\nh_count 2\n" +
		"# HELP a A \\\\ b.\n# TYPE a gauge\na{k=\"q\\\"b\\\\n\\n\",j=\"\"} -1.5e-07\na{k=\"w\",j=\"\"} +Inf\n"
	if err := Lint(strings.NewReader(ok)); err != nil {
		t.Errorf("valid exposition rejected: %v", err)
	}
}

// TestConcurrentScrape runs Write against everything that may race it:
// counter adds, histogram observations and first-use registration of
// labelled children. Every scrape must lint clean — in particular each
// histogram must be self-consistent although its buckets are read one
// atomic at a time — and no counter may go backwards between scrapes.
func TestConcurrentScrape(t *testing.T) {
	var (
		s     Set
		total Counter
		lat   Histogram
		wg    sync.WaitGroup
		stop  = make(chan struct{})
	)
	s.Counter("t_total", "Adds.", &total)
	s.Histogram("t_seconds", "Latency.", &lat)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				total.Add(1)
				lat.Observe(time.Duration(i%2000) * time.Microsecond)
				if i%64 == 0 && i < 64*25 { // 100 children in all
					c := new(Counter)
					s.Counter("t_children_total", "Children.", c, "worker", strconv.Itoa(w), "i", strconv.Itoa(i))
					c.Add(1)
				}
			}
		}()
	}
	var last float64
	for scrape := 0; scrape < 200; scrape++ {
		out := write(t, &s)
		if err := Lint(strings.NewReader(out)); err != nil {
			t.Fatalf("scrape %d: %v\n%s", scrape, err, out)
		}
		_, rest, _ := strings.Cut(out, "\nt_total ")
		line, _, _ := strings.Cut(rest, "\n")
		v, err := strconv.ParseFloat(line, 64)
		if err != nil || v < last {
			t.Fatalf("scrape %d: t_total %q after %v (%v)", scrape, line, last, err)
		}
		last = v
	}
	close(stop)
	wg.Wait()
	if st := lat.Snapshot(); st.Count != total.Load() {
		t.Fatalf("histogram count %d, adds %d", st.Count, total.Load())
	}
}

package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/hybridsel/hybridsel/internal/cluster"
	"github.com/hybridsel/hybridsel/internal/metrics"
)

// fullDaemon serves a runtime with everything that registers series
// configured — auditor, learner, cluster node — after one decide and one
// execute, so every family has its samples.
func fullDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	node, err := cluster.New(cluster.Config{
		Self:  cluster.Member{ID: "node-a", Addr: "127.0.0.1:8080"},
		Peers: []cluster.Member{{ID: "node-b", Addr: "127.0.0.1:8081", Gossip: "http://127.0.0.1:1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := auditedServer(t, Config{Learner: goldenLearner(), Cluster: node})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	postDecide(t, ts.URL, `{"region":"gemm","bindings":{"n":128}}`)
	postDecide(t, ts.URL, `{"region":"mvt1","bindings":{"n":300},"execute":true}`)
	return ts
}

func scrape(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestGoldenMetricsFamilies locks every family's name, type, label keys
// and help against a fixture generated before the series moved onto
// internal/metrics: a renamed, retyped, re-helped or re-labelled series
// fails here. The exposition must also pass the format lint.
func TestGoldenMetricsFamilies(t *testing.T) {
	raw := scrape(t, fullDaemon(t).URL)
	fams, err := metrics.Parse(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%v\n%s", err, raw)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	var got bytes.Buffer
	for _, f := range fams {
		fmt.Fprintf(&got, "%s %s [%s] %s\n", f.Name, f.Type, strings.Join(f.Labels, ","), f.Help)
	}
	path := filepath.Join("testdata", "golden", "metrics_families.txt")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("metric families diverge from %s\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}

// TestRouteCountersCountWithoutAllocating pins the per-request cost of
// hybridseld_http_requests_total: once a route has answered with a code,
// counting it again takes no lock and allocates nothing; the first
// answer registers the child exactly once however many requests race.
func TestRouteCountersCountWithoutAllocating(t *testing.T) {
	var set metrics.Set
	rc := &routeCounters{set: &set, path: "/v2/decide"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rc.count(200)
				rc.count(429)
			}
		}()
	}
	wg.Wait()
	rc.count(-1)
	rc.count(1000) // outside 1..599: one shared child
	if n := testing.AllocsPerRun(1000, func() { rc.count(200); rc.count(429) }); n != 0 {
		t.Errorf("counting a request allocates %v times", n)
	}
	var buf bytes.Buffer
	if err := set.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`hybridseld_http_requests_total{path="/v2/decide",code="200"} 1801` + "\n",
		`hybridseld_http_requests_total{path="/v2/decide",code="429"} 1801` + "\n",
		`hybridseld_http_requests_total{path="/v2/decide",code="0"} 2` + "\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
	if n := strings.Count(buf.String(), "\n"); n != 5 { // HELP, TYPE, three children
		t.Errorf("exposition has %d lines:\n%s", n, buf.String())
	}
}

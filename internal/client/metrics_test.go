package client

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/hybridsel/hybridsel/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite the golden metric-family fixture")

// expose renders what register declares, failing the test unless the
// exposition passes the format lint.
func expose(t *testing.T, register func(*metrics.Set)) string {
	t.Helper()
	var set metrics.Set
	register(&set)
	var buf bytes.Buffer
	if err := set.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := metrics.Lint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	return buf.String()
}

// TestGoldenMetricsFamilies locks every hybridselc_ family's name, type,
// label keys and help against a fixture generated before the series
// moved onto internal/metrics. That move's one addition, the replica key
// that lets each family appear once however many replicas register, is
// checked here and left out of the comparison, so the fixture stays the
// earlier bytes.
func TestGoldenMetricsFamilies(t *testing.T) {
	cc, _ := testClusterClient(t, ClusterConfig{})
	if _, err := cc.Decide(context.Background(), clusterReq(64)); err != nil {
		t.Fatal(err)
	}
	out := expose(t, cc.RegisterMetrics)
	fams, err := metrics.Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	var got bytes.Buffer
	stream := 0 // the transport every replica starts on: which one a cluster is on is read per replica
	for _, f := range fams {
		if n := strings.Count(out, "# TYPE "+f.Name+" "); n != 1 {
			t.Errorf("%s declared %d times", f.Name, n)
		}
		if strings.HasPrefix(f.Name, "hybridselc_stream_") {
			stream++
		}
		perReplica := !strings.HasPrefix(f.Name, "hybridselc_cluster_")
		if slices.Contains(f.Labels, "replica") != perReplica {
			t.Errorf("%s: label keys %v", f.Name, f.Labels)
		}
		keys := slices.DeleteFunc(f.Labels, func(k string) bool { return k == "replica" })
		fmt.Fprintf(&got, "%s %s [%s] %s\n", f.Name, f.Type, strings.Join(keys, ","), f.Help)
	}
	if stream != 5 {
		t.Errorf("%d hybridselc_stream_ families, want calls, writes, fallbacks, reconnects and downgrades", stream)
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

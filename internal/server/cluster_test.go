package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/hybridsel/hybridsel/internal/cluster"
)

func TestClusterStatusEndpoint(t *testing.T) {
	node, err := cluster.New(cluster.Config{
		Self: cluster.Member{ID: "node-a", Addr: "127.0.0.1:8080"},
		Peers: []cluster.Member{
			{ID: "node-b", Addr: "127.0.0.1:8081", Gossip: "http://127.0.0.1:1"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := testServer(t, Config{Cluster: node})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cluster: %d", resp.StatusCode)
	}
	var st cluster.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Self != "node-a" || len(st.Members) != 2 {
		t.Fatalf("status %+v", st)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	for _, series := range []string{
		`hybridsel_cluster_members{health="alive"}`,
		"hybridsel_cluster_gossip_ticks_total",
	} {
		if !strings.Contains(string(body), series) {
			t.Fatalf("/metrics missing %q", series)
		}
	}
}

func TestClusterEndpointAbsentWhenStandalone(t *testing.T) {
	s := testServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("standalone daemon served /v1/cluster with %d", resp.StatusCode)
	}
}

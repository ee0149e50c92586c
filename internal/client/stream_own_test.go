package client

import (
	"context"
	"fmt"
	"testing"

	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// This file holds the stream client's ownership contract: a Response
// handed to a caller is the caller's forever. What a round trip allocates
// is budgeted in alloc_budget_test.go.

func slotRequest(region string, n int64) wire.Request {
	req := server.DecideRequest{Region: region, Bindings: map[string]int64{"n": n}}
	wr := toWireRequest(req, func(string) []string { return []string{"n"} })
	return wr
}

// TestStreamResponsesStayIntact: 32 callers pipeline 20 000 decisions on
// one connection and keep every *wire.Response they were handed. At the
// end each must still carry its own request's verdict: the read loop
// decodes in place, and nothing it ever handed out may be decoded into
// again.
func TestStreamResponsesStayIntact(t *testing.T) {
	_, addr := realStreamDaemon(t)
	ref := fallbackRuntime(t)
	sc, err := DialStream(StreamDialConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	const callers, perCaller = 32, 625
	regions := []string{"gemm", "mvt1"}
	type kept struct {
		region string
		n      int64
		resp   *wire.Response
	}
	all := make([][]kept, callers)
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func() {
			for i := 0; i < perCaller; i++ {
				k := kept{region: regions[(g+i)%2], n: int64(64 + (g*perCaller+i)%700)}
				req := slotRequest(k.region, k.n)
				resp, err := sc.Decide(context.Background(), &req)
				if err != nil {
					errs <- err
					return
				}
				k.resp = resp
				all[g] = append(all[g], k)
			}
			errs <- nil
		}()
	}
	for g := 0; g < callers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	want := map[string]server.DecideResponseV2{}
	for g, ks := range all {
		for i, k := range ks {
			key := fmt.Sprintf("%s/%d", k.region, k.n)
			exp, ok := want[key]
			if !ok {
				exp = server.DecideLocal(ref, server.DecideRequest{Region: k.region, Bindings: map[string]int64{"n": k.n}})
				want[key] = exp
			}
			got := k.resp
			same := got.Err == nil && got.Region == k.region && got.Verdict == exp.Verdict &&
				got.Policy == exp.Policy && got.Provenance == exp.Provenance && len(got.Candidates) == len(exp.Candidates)
			for j := 0; same && j < len(exp.Candidates); j++ {
				c, e := got.Candidates[j], exp.Candidates[j]
				same = c.Target == e.Target && c.Kind == e.Kind.String() &&
					c.PredSeconds == e.PredSeconds && c.CalSeconds == e.CalSeconds
			}
			if !same {
				t.Fatalf("caller %d, decision %d (%s): the response it kept now reads %+v, want %+v", g, i, key, got, exp)
			}
		}
	}
}

//go:build !race

package server

import (
	"net/http"
	"runtime"
	"testing"

	"github.com/hybridsel/hybridsel/internal/symbolic"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// This file holds the package's allocation budgets. They count on
// sync.Pool handing back what it was given — the scratch and the slot
// vectors are pooled — which under the race detector it does not (Put
// drops a quarter of it, by design), so they are not built there.

// TestWireBatchAllocatesNothingPerItem: through the whole frame codec —
// decode, duplicate index, decide, project, encode — a batch costs the same
// number of allocations at 128 items as at 64: what is left is per request
// (net/http's, the admission pipeline's), and a decision adds nothing.
// That holds for a batch of cache hits and for a cold one, every item of
// which misses, prices, ranks and stores: the pooled scratch's outcomes own
// the storage their candidates are decided into, and the decision cache
// stores into the storage an invalidation left behind.
func TestWireBatchAllocatesNothingPerItem(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	regions := []string{"gemm", "mvt1", "atax2"}
	var reqs []wire.Request
	for i := 0; i < 128; i++ {
		reqs = append(reqs, wireReqFor(regions[i%3], symbolic.Bindings{"n": int64(64 + i)}))
	}
	for _, cold := range []bool{false, true} {
		s := testServer(t, Config{})
		w := &sink{h: http.Header{}}
		measure := func(n int) float64 {
			body := wire.AppendBatchRequest(nil, reqs[:n])
			return testing.AllocsPerRun(50, func() {
				if cold {
					for _, region := range regions {
						if err := s.rt.InvalidateDecisions(region); err != nil {
							t.Fatal(err)
						}
					}
				}
				w.body = w.body[:0]
				postFrames(s, w, body)
			})
		}
		measure(128) // decide every key once; size the pooled scratch
		small, large := measure(64), measure(128)
		fr, _, err := wire.DecodeFrame(w.body)
		if err != nil || w.code != http.StatusOK || len(fr.Resps) != 128 {
			t.Fatalf("cold %v: batch answered %d, %+v (%v)", cold, w.code, fr, err)
		}
		for i, resp := range fr.Resps {
			if resp.Err != nil || resp.CacheHit == cold || resp.Region != reqs[i].Region || len(resp.Candidates) != 2 {
				t.Fatalf("cold %v: item %d: %+v", cold, i, resp)
			}
		}
		if large != small {
			t.Fatalf("cold %v: a 128-item batch costs %v allocations and a 64-item batch %v: %v per item, want 0",
				cold, large, small, (large-small)/64)
		}
	}
}

//go:build !race

package client

import (
	"context"
	"runtime"
	"testing"

	"github.com/hybridsel/hybridsel/internal/wire"
)

// This file holds the client's allocation budgets. The server half of a
// round trip counts on sync.Pool handing back what it was given — its slot
// vectors are pooled — which under the race detector it does not (Put
// drops a quarter of it, by design), so they are not built there.

// TestStreamRoundTripAllocationBudget: one decision through a real server
// stream connection and StreamConn.Decide on loopback, in steady state,
// allocates nothing but its share of the read loop's slabs, which the
// Response and Candidates the caller keeps are cut from: a 142nd of a
// response slab and a 141st of a candidate slab (two candidates a
// response), the 240 bytes those two take, and nothing else — on either
// side: the count is the whole process's.
func TestStreamRoundTripAllocationBudget(t *testing.T) {
	_, addr := realStreamDaemon(t)
	sc, err := DialStream(StreamDialConfig{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	req := slotRequest("gemm", 1100)
	var resp *wire.Response
	decide := func() {
		if resp, err = sc.Decide(context.Background(), &req); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		decide()
	}
	// Enough runs that where they start in a slab moves the averages by
	// under 0.0001 allocations and 2 bytes.
	const runs = 20000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decide()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.4f allocations and %.1f bytes a round trip", allocs, bytes)
	// Measured 0.0143-0.0145 allocations and 239 bytes; the slabs alone
	// are 0.0141 and 240.5.
	if allocs > 0.016 || bytes > 243 {
		t.Fatalf("a stream round trip allocates %.4f times and %.1f bytes, want <= 0.016 and 243 (two slab cuts of 240 B)", allocs, bytes)
	}
	if resp.Err != nil || !resp.CacheHit || len(resp.Candidates) != 2 || cap(resp.Candidates) != 2 {
		t.Fatalf("steady-state response %+v", resp)
	}
}

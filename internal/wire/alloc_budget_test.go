//go:build !race

package wire

import (
	"reflect"
	"testing"
)

// This file holds the package's allocation budgets that count on
// sync.Pool handing back what it was given — DecodeFrame's intern tables
// are pooled — which under the race detector it does not (Put drops a
// quarter of it, by design), so they are not built there.

func TestDecodeFrameBatchResponseBudget(t *testing.T) {
	_, resps := batch64()
	body := AppendBatchResponse(nil, 0, resps)
	var fr *Frame
	got := allocsPerRun(100, func() { fr, _, _ = DecodeFrame(body) })
	// The Frame, the responses and one candidate arena: the pooled intern
	// table kept every name from the frame before (allocsPerRun's warm-up).
	if got > 3 {
		t.Fatalf("DecodeFrame of a 64-item batch response: %v allocs, budget 3", got)
	}
	if !reflect.DeepEqual(fr.Resps, resps) {
		t.Fatalf("decoded batch differs from what was encoded")
	}
}

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
	distinct := map[string]bool{}
	for _, r := range resps {
		for _, s := range []string{r.Region, r.Verdict, r.Kind, r.Policy, r.Provenance} {
			distinct[s] = true
		}
		for _, c := range r.Candidates {
			distinct[c.Target], distinct[c.Kind] = true, true
		}
	}
	var fr *Frame
	got := allocsPerRun(100, func() { fr, _, _ = DecodeFrame(body) })
	// The Frame, the responses and one candidate arena, plus each name once.
	if budget := float64(3 + len(distinct)); got > budget {
		t.Fatalf("DecodeFrame of a 64-item batch response: %v allocs, budget %v (3 + %d distinct strings)",
			got, budget, len(distinct))
	}
	if !reflect.DeepEqual(fr.Resps, resps) {
		t.Fatalf("decoded batch differs from what was encoded")
	}
}

package client

import (
	"slices"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/symbolic"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// This file maps between the JSON-shaped types callers see and the frame
// format (internal/wire) the frame and stream transports speak.

// toWireRequest projects a JSON-shaped request onto the frame format and
// returns attrdb.BindingsHash of its bindings, both from one canonical
// pass appending to names and values (nil buffers allocate). When the
// RegionParams hook confirms the binding names are exactly the region's
// parameter set, the request rides the slot form — values in canonical
// order plus the key hash the daemon verifies before dropping them into
// its pooled slot vectors. Otherwise the frame carries named bindings,
// which the daemon resolves like a JSON map.
func toWireRequest(req server.DecideRequest, regionParams func(region string) []string, names []string, values []int64) (wire.Request, uint64) {
	names, values, hash := attrdb.Canonical(symbolic.Bindings(req.Bindings), names, values)
	wr := wire.Request{Region: req.Region, Execute: req.Execute, Values: values}
	if regionParams != nil && len(names) > 0 && slices.Equal(regionParams(req.Region), names) {
		wr.SlotForm, wr.KeyHash = true, hash
	} else {
		wr.Names = names
	}
	return wr, hash
}

// kindFromWire maps a wire kind string back onto the registry enum.
func kindFromWire(s string) offload.TargetKind {
	if s == "gpu" {
		return offload.KindGPU
	}
	return offload.KindCPU
}

// wireToResponseV2 projects a response frame back onto the JSON response
// shape, so callers see one Verdict type regardless of encoding.
func wireToResponseV2(wr *wire.Response) server.DecideResponseV2 {
	resp := server.DecideResponseV2{
		Region:        wr.Region,
		Verdict:       wr.Verdict,
		Kind:          wr.Kind,
		Policy:        wr.Policy,
		Provenance:    wr.Provenance,
		SplitFraction: wr.SplitFraction,
		CacheHit:      wr.CacheHit,
		ActualSeconds: wr.ActualSeconds,
		DecisionNanos: wr.DecisionNanos,
	}
	if wr.Err != nil {
		resp.Error = &server.ErrorInfo{
			Code:       wr.Err.Code,
			Message:    wr.Err.Message,
			RetryAfter: wr.Err.RetryAfterSeconds,
		}
		return resp
	}
	if n := len(wr.Candidates); n > 0 {
		resp.Candidates = make([]offload.Candidate, n)
		for i := range wr.Candidates {
			wc := &wr.Candidates[i]
			resp.Candidates[i] = offload.Candidate{
				Target:      wc.Target,
				Kind:        kindFromWire(wc.Kind),
				PredSeconds: wc.PredSeconds,
				CalSeconds:  wc.CalSeconds,
			}
		}
	}
	return resp
}

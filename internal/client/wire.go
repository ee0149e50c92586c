package client

import (
	"slices"

	"github.com/hybridsel/hybridsel/internal/attrdb"
	"github.com/hybridsel/hybridsel/internal/cluster"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/symbolic"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// This file maps between the JSON-shaped types callers see and the frame
// format (internal/wire) the frame and stream transports speak.

// toWireRequest projects a JSON-shaped request onto the frame format.
// When the RegionParams hook confirms the binding names are exactly the
// region's parameter set, the request rides the slot form — values in
// canonical order plus the key hash the daemon verifies before dropping
// them into its pooled slot vectors. Otherwise the frame carries named
// bindings, which the daemon resolves like a JSON map.
func toWireRequest(req server.DecideRequest, regionParams func(region string) []string) wire.Request {
	return canonical(req, nil, nil).frame(req, regionParams)
}

// canon is a request's canonical bindings, their bindingsHash and its ring
// key, on the caller's stack: a single's key to its lease, its route and its
// flight.
type canon struct {
	names  []string
	values []int64
	hash   uint64
	key    uint64 // cluster.RegionKey(region, hash): the ring's and the lease table's
}

// canonical appends req's canonical bindings to names and values.
func canonical(req server.DecideRequest, names []string, values []int64) canon {
	names, values, hash := attrdb.Canonical(symbolic.Bindings(req.Bindings), names, values)
	return canon{names, values, hash, cluster.RegionKey(req.Region, hash)}
}

// frame is req's frame over k.
func (k canon) frame(req server.DecideRequest, regionParams func(region string) []string) wire.Request {
	wr := wire.Request{Region: req.Region, Execute: req.Execute, Values: k.values}
	if regionParams != nil && len(k.names) > 0 && slices.Equal(regionParams(req.Region), k.names) {
		wr.SlotForm, wr.KeyHash = true, k.hash
	} else {
		wr.Names = k.names
	}
	return wr
}

// kindFromWire maps a wire kind string back onto the registry enum.
func kindFromWire(s string) offload.TargetKind {
	if s == "gpu" {
		return offload.KindGPU
	}
	return offload.KindCPU
}

// wireToResponseV2 projects a response frame back onto the JSON response
// shape, so callers see one Verdict type regardless of encoding. The
// candidates go into cands' storage when it has room (nil: allocated).
func wireToResponseV2(wr *wire.Response, cands []offload.Candidate) server.DecideResponseV2 {
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
		resp.Candidates = slices.Grow(cands[:0], n)[:n:n]
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

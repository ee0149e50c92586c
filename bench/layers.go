package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sort"

	"github.com/hybridsel/hybridsel/internal/wire"
)

// The per-layer figures that are not span medians: allocation counts,
// the loopback floor, and the cluster world's paired comparisons.

// loopbackFloor is the p50 round trip of reqBytes out and respBytes
// back over a loopback TCP connection, 1 in flight, through an echo
// peer that does nothing else: what the same bytes cost with no program
// at either end.
func loopbackFloor(reqBytes, respBytes, rounds int) (float64, error) {
	l, err := listen()
	if err != nil {
		return 0, err
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		in, out := make([]byte, reqBytes), make([]byte, respBytes)
		for {
			if _, err := io.ReadFull(c, in); err != nil {
				return
			}
			if _, err := c.Write(out); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		l.Close()
		<-done
		return 0, err
	}
	out, in := make([]byte, reqBytes), make([]byte, respBytes)
	trips := make([]span, 0, rounds)
	clk := newClock(1024)
	for i := 0; i < rounds+rounds/10; i++ {
		clk.due(nowNs())
		a := nowNs()
		if _, err = c.Write(out); err == nil {
			_, err = io.ReadFull(c, in)
		}
		if err != nil {
			break
		}
		if i >= rounds/10 { // the first tenth warms the path
			trips = append(trips, span{start: a, end: nowNs()})
		}
	}
	clk.tick()
	c.Close()
	<-done
	if err != nil {
		return 0, fmt.Errorf("loopback echo: %w", err)
	}
	return refMedian(clk, trips) / 1e3, nil
}

// refMedian is the median length, in reference ns, of spans taken while
// clk ticked.
func refMedian(clk *clock, spans []span) float64 {
	slices := clk.slices()
	durs := make([]float64, len(spans))
	for i := range spans {
		durs[i] = refAt(slices, spans[i].end, spans[i].dur())
	}
	sort.Float64s(durs)
	return quantile(durs, 0.5)
}

// mallocs is the number of heap allocations per call of f, over n calls.
func mallocs(n int, f func(i int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// allocFigures counts allocations on the ladder: one wire round trip in
// the workload's frame form, and one decide on the workload's path
// through the decision cache. from is the next unused call, which is
// where the traced pass left the ladder's caches.
func (w *world) allocFigures(l *ladder, from int) (map[string]float64, error) {
	s, g := w.spec, w.conn.gen
	per := s.perCall()
	m := map[string]float64{}
	var failed error

	if s.via != overCluster {
		var body, out []byte
		var batch []wire.Request
		resp := wire.Response{Region: "gemm", Verdict: "gpu/base", Kind: "gpu", Policy: "model-guided",
			Provenance: "analytical", Candidates: make([]wire.Candidate, len(w.conn.exp[0].cands))}
		resps := make([]wire.Response, per)
		for i := range resps {
			resps[i] = resp
		}
		m["wire.allocs_per_roundtrip"] = mallocs(2000, func(i int) {
			if s.via == overStream {
				body = wire.AppendStreamRequest(body[:0], uint64(i+1), &w.conn.wreqs[g.at(i)])
				out = wire.AppendStreamResponse(out[:0], uint64(i+1), &resp)
			} else {
				batch = batch[:0]
				for k := 0; k < per; k++ {
					batch = append(batch, w.conn.wreqs[g.at(i*per+k)])
				}
				body = wire.AppendBatchRequest(body[:0], batch)
				out = wire.AppendBatchResponse(out[:0], 0, resps)
			}
			if _, _, err := wire.DecodeFrame(body); err != nil {
				failed = err
			}
			if _, _, err := wire.DecodeFrame(out); err != nil {
				failed = err
			}
		})
	}

	name := "offload.allocs_per_hit"
	if s.cold || s.invalidateEvery > 0 {
		name = "offload.allocs_per_miss"
	}
	// The miss workload's invalidations are made outside the counted
	// stretch: a ring's worth of regions at a time, then one ring of
	// decides, each of them a miss.
	rounds, ring := 20, g.pass()
	if g.cold {
		rounds, ring = 1, 4096
	}
	total := 0.0
	for r := 0; r < rounds; r++ {
		if s.invalidateEvery > 0 {
			for i := range g.regions {
				invalidate(l.rt, g, i)
			}
		}
		total += mallocs(ring, func(i int) {
			k := g.keys[g.at(from*per+r*ring+i)]
			region, err := l.rt.Region(g.regions[k.region])
			if err == nil {
				_, err = region.DecideVals(w.conn.wreqs[g.at(from*per+r*ring+i)].Values)
			}
			if err != nil {
				failed = err
			}
		})
	}
	m[name] = total / float64(rounds)
	return m, failed
}

// clusterFigures are the cluster world's paired comparisons, each pair
// walked over the ring call by call so drift hits both sides alike:
// ClusterClient.Decide against the owner's replica Client.Decide
// (routing + hedge race = cluster.overhead_us), and that against a bare
// http.Client.Post of the same JSON body (coalescing + breaker + retry
// ladder + codec = client.ladder_overhead_us); plus one gossip round.
func (w *world) clusterFigures(rounds int) (map[string]float64, error) {
	c := w.conn
	ctx := context.Background()
	bare := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer bare.CloseIdleConnections()
	urlOf := map[string]string{}
	for i, id := range w.ids {
		urlOf[id] = w.urls[i] + "/v2/decide"
	}
	bodies := make([][]byte, len(c.jreqs))
	for i := range c.jreqs {
		var err error
		if bodies[i], err = json.Marshal(c.jreqs[i]); err != nil {
			return nil, err
		}
	}
	var viaCluster, viaReplica, viaPost []span
	clk := newClock(1024)
	for i := 0; i < rounds+rounds/10; i++ {
		k := i % len(c.jreqs)
		req := c.jreqs[k]
		owner := c.cc.Route(req)[0]

		clk.due(nowNs())
		t0 := nowNs()
		if _, err := c.cc.Decide(ctx, req); err != nil {
			return nil, err
		}
		t1 := nowNs()
		if _, err := c.cc.Client(owner).Decide(ctx, req); err != nil {
			return nil, err
		}
		t2 := nowNs()
		resp, err := bare.Post(urlOf[owner], "application/json", bytes.NewReader(bodies[k]))
		if err != nil {
			return nil, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t3 := nowNs()
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("bare post: HTTP %d: %v", resp.StatusCode, err)
		}
		if i >= rounds/10 {
			viaCluster, viaReplica, viaPost = append(viaCluster, span{start: t0, end: t1}), append(viaReplica, span{start: t1, end: t2}), append(viaPost, span{start: t2, end: t3})
		}
	}
	var ticks []span
	for i := 0; i < 60; i++ {
		clk.tick()
		a := nowNs()
		w.nodes[i%len(w.nodes)].Tick(ctx)
		ticks = append(ticks, span{start: a, end: nowNs()})
	}
	clk.tick()
	p50 := func(v []span) float64 { return refMedian(clk, v) / 1e3 }
	return map[string]float64{
		"cluster.overhead_us":       p50(viaCluster) - p50(viaReplica),
		"client.ladder_overhead_us": p50(viaReplica) - p50(viaPost),
		"cluster.gossip_tick_us":    p50(ticks),
	}, nil
}

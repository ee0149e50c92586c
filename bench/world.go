package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"github.com/hybridsel/hybridsel/internal/client"
	"github.com/hybridsel/hybridsel/internal/cluster"
	"github.com/hybridsel/hybridsel/internal/learn"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/wire"
)

const (
	replicas       = 3
	gossipInterval = 200 * time.Millisecond
)

var discard = slog.New(slog.NewTextHandler(io.Discard, nil))

// world is one workload's whole system, built in-process: the program
// (runtimes, servers, gossip nodes, listeners on loopback) and the
// caller's side of it (one connection or one cluster client).
type world struct {
	spec *spec

	// The program.
	rts   []*offload.Runtime // one per replica
	lrn   *learn.Learner     // cold world only
	srvs  []*server.Server
	nodes []*cluster.Node
	ids   []string // replica IDs, cluster world only
	urls  []string // replica base URLs, HTTP worlds only
	stop  []func() // teardown, run in reverse

	// The caller.
	conn *conn
}

// conn is the caller's end of a world. It is separate from world so the
// failure-accounting tests can point one at a stub server.
type conn struct {
	spec *spec
	gen  *generator
	exp  []verdict

	wreqs []wire.Request         // stream and batch
	jreqs []server.DecideRequest // cluster

	sc      *client.StreamConn
	hc      *http.Client
	postURL string
	cc      *client.ClusterClient
}

// buildWorld constructs the workload's world from nothing and drives it
// to its first correct verdict. clk, when the construction is one of
// those behind setup_s, is ticked between its steps; the steps are the
// same, in the same order, every time a workload's world is built.
func buildWorld(s *spec, gen *generator, exp []verdict, wreqs []wire.Request, clk *clock) (*world, error) {
	w := &world{spec: s}
	clk.tick()
	if err := w.serve(clk); err != nil {
		w.close()
		return nil, err
	}
	c, err := dial(s, gen, exp, wreqs, w.endpoint(), w.members(), clk)
	if err != nil {
		w.close()
		return nil, err
	}
	w.conn = c
	w.stop = append(w.stop, c.close)
	var first tally
	c.call(&caller{}, 0, &first)
	clk.tick()
	if first.failed > 0 {
		w.close()
		return nil, fmt.Errorf("%s: first verdict failed: %s", s.name, first.reason())
	}
	return w, nil
}

func (w *world) close() {
	for i := len(w.stop) - 1; i >= 0; i-- {
		w.stop[i]()
	}
	w.stop = nil
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// serve starts the program side: one replica for the stream and batch
// worlds, three gossiping ones for the cluster world.
func (w *world) serve(clk *clock) error {
	n := 1
	if w.spec.via == overCluster {
		n = replicas
	}
	// Gossip listeners come first: every node needs its peers' addresses.
	var gossip []net.Listener
	var members []cluster.Member
	if w.spec.via == overCluster {
		for i := 0; i < n; i++ {
			gl, err := listen()
			if err != nil {
				return err
			}
			w.stop = append(w.stop, func() { gl.Close() })
			gossip = append(gossip, gl)
			id := fmt.Sprintf("node-%c", 'a'+i)
			w.ids = append(w.ids, id)
			members = append(members, cluster.Member{ID: id, Gossip: "http://" + gl.Addr().String()})
		}
	}
	for i := 0; i < n; i++ {
		rt, lrn, err := w.spec.newRuntime(clk)
		if err != nil {
			return err
		}
		w.rts, w.lrn = append(w.rts, rt), lrn
		cfg := server.Config{Runtime: rt, Logger: discard, Learner: lrn}

		l, err := listen()
		if err != nil {
			return err
		}
		if w.spec.via == overCluster {
			self := members[i]
			self.Addr = "http://" + l.Addr().String()
			hc := &http.Client{Timeout: 2 * time.Second, Transport: &http.Transport{}}
			node, err := cluster.New(cluster.Config{Self: self, Peers: members,
				Transport: &cluster.HTTPTransport{Client: hc}, Logger: discard})
			if err != nil {
				l.Close()
				return err
			}
			gs := &http.Server{Handler: node.Handler()}
			served := make(chan struct{})
			go func() {
				defer close(served)
				gs.Serve(gossip[i])
			}()
			stopGossip := node.Start(gossipInterval)
			w.stop = append(w.stop, func() {
				stopGossip()
				gs.Close()
				<-served
				hc.CloseIdleConnections()
			})
			w.nodes = append(w.nodes, node)
			cfg.Cluster = node
		}
		srv, err := server.New(cfg)
		if err != nil {
			l.Close()
			return err
		}
		w.srvs = append(w.srvs, srv)
		done := make(chan struct{})
		go func() {
			defer close(done)
			if w.spec.via == overStream {
				srv.ServeStream(l)
			} else {
				srv.Serve(l)
			}
		}()
		w.stop = append(w.stop, func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			l.Close()
			<-done
		})
		if w.spec.via == overStream {
			w.urls = append(w.urls, l.Addr().String())
		} else {
			w.urls = append(w.urls, "http://"+l.Addr().String())
		}
		clk.tick()
	}
	return nil
}

// endpoint is the single replica's address: host:port of the raw stream
// listener, or the HTTP base URL.
func (w *world) endpoint() string { return w.urls[0] }

func (w *world) members() []client.ClusterMember {
	var ms []client.ClusterMember
	for i, id := range w.ids {
		ms = append(ms, client.ClusterMember{ID: id, BaseURL: w.urls[i]})
	}
	return ms
}

// dial builds the caller's side against the given endpoint (stream and
// batch) or member set (cluster).
func dial(s *spec, gen *generator, exp []verdict, wreqs []wire.Request, endpoint string, members []client.ClusterMember, clk *clock) (*conn, error) {
	c := &conn{spec: s, gen: gen, exp: exp, wreqs: wreqs}
	switch s.via {
	case overStream:
		sc, err := client.DialStream(client.StreamDialConfig{Addr: endpoint})
		if err != nil {
			return nil, err
		}
		c.sc = sc
	case overBatch:
		c.hc = &http.Client{Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1}}
		c.postURL = endpoint + "/v2/decide"
	case overCluster:
		// Production defaults throughout; the fallback runtime is what a
		// real launch site carries, and a verdict served from it counts
		// as a failure here.
		fb, _, err := s.newRuntime(clk)
		if err != nil {
			return nil, err
		}
		cc, err := client.NewCluster(client.ClusterConfig{Members: members, Fallback: fb})
		if err != nil {
			return nil, err
		}
		c.cc = cc
		c.jreqs = gen.jsonRequests()
	}
	clk.tick()
	return c, nil
}

func (c *conn) close() {
	switch {
	case c.sc != nil:
		c.sc.Close()
	case c.hc != nil:
		c.hc.CloseIdleConnections()
	case c.cc != nil:
		c.cc.Close()
	}
}

// tally counts what happened to the decisions a caller attempted.
type tally struct {
	attempted int
	failed    int // every kind below, summed
	transport int // no usable response: connection error, HTTP status, undecodable body
	errored   int // an error response, sheds included
	sheds     int // error responses with code queue_full (and HTTP 429)
	fallbacks int // served by the client's in-process fallback runtime
	mismatch  int // a verdict the reference runtime does not agree with
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.transport += o.transport
	t.errored += o.errored
	t.sheds += o.sheds
	t.fallbacks += o.fallbacks
	t.mismatch += o.mismatch
}

func (t *tally) reason() string {
	return fmt.Sprintf("%d transport, %d error responses (%d sheds), %d fallbacks, %d mismatches",
		t.transport, t.errored, t.sheds, t.fallbacks, t.mismatch)
}

// caller is the per-goroutine scratch of one closed-loop caller.
type caller struct {
	batch []wire.Request
	body  []byte
	resp  bytes.Buffer
}

var errDead = errors.New("connection dead")

// call makes the call that starts at decision d, checks every verdict
// it carries against the reference and adds the outcome to t. It
// returns errDead when the connection can carry no further call.
func (c *conn) call(cl *caller, d int, t *tally) error {
	n := c.spec.perCall()
	t.attempted += n
	switch c.spec.via {
	case overStream:
		k := c.gen.at(d)
		resp, err := c.sc.Decide(context.Background(), &c.wreqs[k])
		switch {
		case err != nil:
			t.transport++
			t.failed++
			if !c.sc.Usable() {
				return errDead
			}
		case resp.Err != nil:
			t.errored++
			t.failed++
			if resp.Err.Code == server.ErrCodeQueueFull {
				t.sheds++
			}
		case !c.exp[k].matchesWire(resp):
			t.mismatch++
			t.failed++
		}
	case overBatch:
		cl.batch = cl.batch[:0]
		for i := 0; i < n; i++ {
			cl.batch = append(cl.batch, c.wreqs[c.gen.at(d+i)])
		}
		cl.body = wire.AppendBatchRequest(cl.body[:0], cl.batch)
		resps, shed, err := c.postBatch(cl)
		if err != nil || len(resps) != n {
			if shed {
				t.errored += n
				t.sheds += n
			} else {
				t.transport += n
			}
			t.failed += n
			return nil
		}
		for i := range resps {
			switch r := &resps[i]; {
			case r.Err != nil:
				t.errored++
				t.failed++
			case !c.exp[c.gen.at(d+i)].matchesWire(r):
				t.mismatch++
				t.failed++
			}
		}
	case overCluster:
		k := c.gen.at(d)
		v, err := c.cc.Decide(context.Background(), c.jreqs[k])
		switch {
		case err != nil:
			t.transport++
			t.failed++
		case v.Provenance == client.ProvenanceFallback:
			t.fallbacks++
			t.failed++
		case v.Response.Error != nil:
			t.errored++
			t.failed++
		case !c.exp[k].matchesJSON(&v.Response):
			t.mismatch++
			t.failed++
		}
	}
	return nil
}

// postBatch posts cl.body as one frame body and decodes the batch
// response. shed reports an HTTP 429.
func (c *conn) postBatch(cl *caller) (resps []wire.Response, shed bool, err error) {
	resp, err := c.hc.Post(c.postURL, wire.ContentType, bytes.NewReader(cl.body))
	if err != nil {
		return nil, false, err
	}
	cl.resp.Reset()
	_, err = cl.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode == http.StatusTooManyRequests, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	f, _, err := wire.DecodeFrame(cl.resp.Bytes())
	if err != nil {
		return nil, false, err
	}
	if f.Type != wire.TypeBatchResponse {
		return nil, false, fmt.Errorf("frame type %d", f.Type)
	}
	return f.Resps, false, nil
}

// counters reads every public counter the per-layer metrics difference:
// Runtime.Metrics, the learner's stats, a /metrics scrape of each server
// (made in-process, through its handler), the cluster client's and its
// replica clients' metrics, and each gossip node's status.
func (w *world) counters() map[string]float64 {
	c := map[string]float64{}
	for _, rt := range w.rts {
		m := rt.Metrics()
		c["hits"] += float64(m.DecisionCacheHits)
		c["misses"] += float64(m.DecisionCacheMisses)
		c["evictions"] += float64(m.DecisionCacheEvictions)
		c["compiled_evals"] += float64(m.CompiledModelEvals)
	}
	if w.lrn != nil {
		st := w.lrn.Stats()
		c["learned"] = float64(st.LearnedVerdicts)
		c["analytical"] = float64(st.AnalyticalVerdicts)
	}
	for _, srv := range w.srvs {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		sc := bufio.NewScanner(rec.Body)
		for sc.Scan() {
			name, val, ok := strings.Cut(sc.Text(), " ")
			if !ok || strings.HasPrefix(name, "#") {
				continue
			}
			switch name {
			case "hybridsel_stream_writes_total", "hybridseld_shed_total":
				f, _ := strconv.ParseFloat(val, 64) // a malformed line reads as 0 and shows in the metric
				c[name] += f
			}
		}
	}
	if cc := w.conn.cc; cc != nil {
		m := cc.Metrics()
		c["cluster_requests"] = float64(m.Requests)
		c["cluster_hedges"] = float64(m.CrossHedges)
		c["cluster_failovers"] = float64(m.Failovers)
		for id, r := range m.Replicas {
			c["replica_requests/"+id] = float64(r.Requests)
			c["client_retries"] += float64(r.Retries)
			c["client_hedges"] += float64(r.Hedges)
			c["client_transport_errors"] += float64(r.TransportErrors)
		}
	}
	for _, n := range w.nodes {
		c["gossip_exchanges"] += float64(n.Status().Exchanges)
	}
	return c
}

// accumulate adds after-before into sum.
func accumulate(sum, before, after map[string]float64) {
	for k, v := range after {
		sum[k] += v - before[k]
	}
}

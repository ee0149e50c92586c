package client

import (
	"context"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/server"
)

// TestHedgeDelayPerTransport is the regression test for hedge-delay
// estimation mixing transports: a client that has switched to the
// stream transport must derive its hedge delay from stream attempt
// latencies, never from the stale HTTP p99 accumulated before the
// switch (and vice versa).
func TestHedgeDelayPerTransport(t *testing.T) {
	c, err := New(Config{BaseURL: "http://127.0.0.1:1", timeout: time.Second, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	ep := c.route[0]

	// Pre-switch history: slow HTTP attempts.
	for i := 0; i < 64; i++ {
		ep.latHTTP.observe(40 * time.Millisecond)
	}
	if d := ep.p99Delay(false, time.Second); d != 40*time.Millisecond {
		t.Fatalf("http hedge delay = %v, want 40ms from the http sampler", d)
	}
	// No stream samples yet: stream hedging must stay off, not fire at
	// the HTTP transport's 40ms.
	if d := ep.p99Delay(true, time.Second); d != 0 {
		t.Fatalf("stream hedge delay with no stream samples = %v, want 0", d)
	}

	// Post-switch: fast stream attempts. The stream hedge derives from
	// them (clamped at the 500µs floor), while the HTTP estimate is
	// untouched.
	for i := 0; i < 64; i++ {
		ep.latStream.observe(1 * time.Millisecond)
	}
	if d := ep.p99Delay(true, time.Second); d != 1*time.Millisecond {
		t.Fatalf("stream hedge delay = %v, want 1ms from the stream sampler", d)
	}
	if d := ep.p99Delay(false, time.Second); d != 40*time.Millisecond {
		t.Fatalf("http hedge delay after stream traffic = %v, want 40ms still", d)
	}

	// Clamps still apply per transport: a sub-floor stream p99 hedges at
	// the 500µs floor instead of doubling load immediately.
	fast, err := New(Config{BaseURL: "http://127.0.0.1:1", timeout: time.Second, Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		fast.route[0].latStream.observe(50 * time.Microsecond)
	}
	if d := fast.route[0].p99Delay(true, time.Second); d != 500*time.Microsecond {
		t.Fatalf("clamped stream hedge delay = %v, want 500µs floor", d)
	}
}

// cannedTransport answers every call at once with the same verdicts: a
// rung that costs nothing, so what a call allocates is the loop's alone.
type cannedTransport struct{ vs []Verdict }

func (c cannedTransport) Send(context.Context, []server.DecideRequest, bool) ([]Verdict, error) {
	return c.vs, nil
}
func (cannedTransport) Close() {}

// TestHedgeArmedAllocationBudget puts a price on the loop's two branch
// points. A hedge that is armed and never fires is a timer, its function
// and the hedge's own state: three allocations on top of the unhedged
// call, with no goroutine or channel of its own. And a route of three
// endpoints costs what a route of one does: the ring's successor list and
// the route both stay on the caller's stack.
func TestHedgeArmedAllocationBudget(t *testing.T) {
	canned := cannedTransport{vs: make([]Verdict, 1)}
	single := func(cfg Config) *Client {
		cfg.BaseURL = "http://127.0.0.1:1"
		c := newTestClient(t, cfg)
		c.route[0].ladder[0].Transport = canned
		return c
	}
	unhedged := single(Config{disableHedging: true})
	armed := single(Config{hedgeAfter: time.Hour})
	cc, err := NewCluster(ClusterConfig{Members: []ClusterMember{
		{ID: "node-a", BaseURL: "http://127.0.0.1:1"},
		{ID: "node-b", BaseURL: "http://127.0.0.1:1"},
		{ID: "node-c", BaseURL: "http://127.0.0.1:1"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cc.Close)
	for _, v := range cc.views {
		v.route[0].ladder[0].Transport = canned
	}

	ctx, req := context.Background(), gemmReq()
	allocs := func(decide func(context.Context, server.DecideRequest) (*Verdict, error)) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := decide(ctx, req); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain := allocs(unhedged.Decide)
	if got := allocs(armed.Decide); got > plain+3 {
		t.Errorf("a call with a hedge armed allocates %v times, %v without: want at most 3 more", got, plain)
	}
	if m := armed.Metrics(); m.Hedges != 0 {
		t.Errorf("the armed hedge fired %d times", m.Hedges)
	}
	if got := allocs(cc.Decide); got > plain {
		t.Errorf("a call on a route of three allocates %v times, %v on a route of one: want no more", got, plain)
	}
	// Hedging in a cluster is opt-in, its views included: hundreds of
	// latency samples in, a view still arms nothing.
	if got := allocs(cc.Client("node-a").Decide); got > plain {
		t.Errorf("a call through a cluster's view allocates %v times, %v unhedged: it armed a hedge nobody asked for", got, plain)
	}
}

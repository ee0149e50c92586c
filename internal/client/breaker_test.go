package client

import (
	"context"
	"testing"
	"time"
)

// fakeClock drives the breaker's cooldown without sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestBreakerLifecycle(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	var transitions []string
	b := newBreaker(3, time.Second, func(from, to BreakerState) {
		transitions = append(transitions, from.String()+"->"+to.String())
	})
	b.now = clk.now

	// Closed: passes traffic; failures below threshold stay closed.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker rejected")
		}
		b.Failure()
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after 2/3 failures", b.State())
	}
	// A success resets the consecutive count.
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("success did not reset the failure count")
	}
	// Third consecutive failure trips it.
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after threshold failures", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request before cooldown")
	}

	// Cooldown elapses: half-open admits exactly one probe.
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("half-open breaker rejected the probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v during probe", b.State())
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Probe failure reopens; cooldown restarts.
	b.Failure()
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatal("failed probe did not reopen the breaker")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("reopened breaker never half-opened again")
	}
	// Probe success closes.
	b.Success()
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("successful probe did not close the breaker")
	}

	want := []string{
		"closed->open",
		"open->half-open",
		"half-open->open",
		"open->half-open",
		"half-open->closed",
	}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v", transitions)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transition %d: got %s want %s", i, transitions[i], want[i])
		}
	}
}

func TestBreakerStateStrings(t *testing.T) {
	for s, want := range map[BreakerState]string{
		BreakerClosed: "closed", BreakerOpen: "open", BreakerHalfOpen: "half-open",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

// TestBreakerProbeAlwaysSettles: every attempt the breaker admits is
// settled, the half-open probe above all. A probe answered by something
// that says nothing about the daemon's health — a shed, a refusal of the
// request, a caller that gives up, a 429 that loses to the hedge — used
// to leave the breaker half-open with its one probe taken for good: the
// daemon was never asked again, a cluster passed the replica over for
// ever, a fallback answered every verdict locally for ever. Each row opens
// the breaker with one 500, lets the cooldown pass, has the probe answered
// as the row says, and then requires that the daemon is asked again and
// that its first 200 closes the breaker.
func TestBreakerProbeAlwaysSettles(t *testing.T) {
	const cooldown = 5 * time.Millisecond
	rows := []struct {
		name    string
		hedge   time.Duration // Config.hedgeAfter; 0 for no hedging
		timeout time.Duration // the probing call's own deadline; 0 for none
		arm     func(target, hedged *replicaStub)
	}{
		{name: "shed", arm: func(target, _ *replicaStub) { target.sheds.Store(1) }},
		{name: "refused", arm: func(target, _ *replicaStub) { target.refuse.Store(true) }},
		{name: "caller gives up", timeout: 10 * time.Millisecond,
			arm: func(target, _ *replicaStub) { target.delay.Store(int64(100 * time.Millisecond)) }},
		// The probe's 429 arrives after the hedge has left and before the
		// hedge's 200 does: the call succeeds, the probed primary did not.
		{name: "hedge wins", hedge: 2 * time.Millisecond,
			arm: func(target, hedged *replicaStub) {
				target.sheds.Store(1)
				target.delay.Store(int64(10 * time.Millisecond))
				if hedged != target {
					hedged.delay.Store(int64(30 * time.Millisecond))
				}
			}},
	}
	for _, kind := range []string{"Client", "ClusterClient"} {
		for _, row := range rows {
			t.Run(kind+"/"+row.name, func(t *testing.T) {
				cfg := Config{maxAttempts: 1, breakerFailures: 1, breakerCooldown: cooldown,
					hedgeAfter: row.hedge, disableHedging: row.hedge == 0}
				var decide func(context.Context) (*Verdict, error)
				var state func() BreakerState
				var target, hedged *replicaStub // the probed daemon, and where its hedge goes
				if kind == "Client" {
					target = newReplicaStub(t, "solo", "gpu/base")
					hedged = target
					cfg.BaseURL = target.ts.URL
					c := newTestClient(t, cfg)
					decide = func(ctx context.Context) (*Verdict, error) { return c.Decide(ctx, gemmReq()) }
					state = c.BreakerState
				} else {
					cc, stubs := testClusterClient(t, ClusterConfig{Replica: cfg})
					order := cc.Route(gemmReq())
					target, hedged = stubs[order[0]], stubs[order[1]]
					decide = func(ctx context.Context) (*Verdict, error) { return cc.Decide(ctx, gemmReq()) }
					state = cc.Client(order[0]).BreakerState
				}

				target.fail.Store(true)
				_, _ = decide(context.Background())
				target.fail.Store(false)
				if state() != BreakerOpen {
					t.Fatalf("after one 500 the breaker is %s, want open", state())
				}

				time.Sleep(2 * cooldown)
				row.arm(target, hedged)
				asked := target.calls.Load()
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				if row.timeout > 0 {
					ctx, cancel = context.WithTimeout(ctx, row.timeout)
				}
				_, _ = decide(ctx)
				cancel()
				if target.calls.Load() == asked {
					t.Fatal("the cooldown passed and no probe was sent")
				}
				target.refuse.Store(false)
				target.delay.Store(0)
				hedged.delay.Store(0)
				if hedged != target {
					// From here on it is the probed daemon's own 200 that
					// counts: a hedge a slow machine lets fire must not win.
					hedged.fail.Store(true)
				}

				time.Sleep(2 * cooldown)
				asked = target.calls.Load()
				if _, err := decide(context.Background()); err != nil {
					t.Fatalf("healthy daemon, breaker %s: %v", state(), err)
				}
				if target.calls.Load() == asked {
					t.Fatalf("the daemon was not asked again: breaker %s, its probe never settled", state())
				}
				if state() != BreakerClosed {
					t.Fatalf("after a 200 the breaker is %s, want closed", state())
				}
			})
		}
	}
}

package client

import (
	"sync"
	"time"
)

// BreakerState is the circuit breaker's state.
type BreakerState int

// Breaker states. Closed passes traffic and counts consecutive failures;
// Open rejects immediately (callers degrade to the fallback runtime);
// HalfOpen admits a single probe request after the cooldown.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String names the state as exported in metrics.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// breaker is a consecutive-failure circuit breaker:
//
//	closed --(threshold consecutive failures)--> open
//	open   --(cooldown elapsed)--> half-open (one probe admitted)
//	half-open --(probe success)--> closed
//	half-open --(probe failure)--> open (cooldown restarts)
//
// Only attempt outcomes the server is responsible for feed it: transport
// errors, 5xx, truncated responses. 429 sheds and 4xx caller errors do
// not (a daemon refusing load politely is alive, and a bad request says
// nothing about the service).
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool

	// onTransition observes state changes for metrics; called with the
	// lock held, so it must not call back into the breaker.
	onTransition func(from, to BreakerState)
}

func newBreaker(threshold int, cooldown time.Duration, onTransition func(from, to BreakerState)) *breaker {
	return &breaker{
		threshold:    threshold,
		cooldown:     cooldown,
		now:          time.Now,
		onTransition: onTransition,
	}
}

func (b *breaker) transition(to BreakerState) {
	if b.state == to {
		return
	}
	from := b.state
	b.state = to
	if b.onTransition != nil {
		b.onTransition(from, to)
	}
}

// Allow reports whether an attempt may go to the network now. In
// half-open it admits exactly one in-flight probe. Every attempt Allow
// admits ends in exactly one settle, or a probe that is never settled
// keeps every later attempt out for good.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.transition(BreakerHalfOpen)
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// settle ends an attempt Allow admitted, with the attempt's failure or
// nil: Success, Failure when the failure is the endpoint's fault, and
// otherwise — a shed, a refusal of the request itself — nothing about its
// health was learned: the state stays as it was, and a half-open breaker
// admits the next attempt as its probe.
func (b *breaker) settle(err *callErr) {
	switch {
	case err == nil:
		b.Success()
	case err.breaker:
		b.Failure()
	default:
		b.mu.Lock()
		b.probing = false
		b.mu.Unlock()
	}
}

// Success records a breaker-eligible attempt that succeeded.
func (b *breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
	if b.state == BreakerHalfOpen {
		b.transition(BreakerClosed)
	}
}

// Failure records a breaker-eligible attempt that failed.
func (b *breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	b.probing = false
	switch b.state {
	case BreakerClosed:
		if b.failures >= b.threshold {
			b.openedAt = b.now()
			b.transition(BreakerOpen)
		}
	case BreakerHalfOpen:
		b.openedAt = b.now()
		b.transition(BreakerOpen)
	}
}

// State returns the current state (resolving an expired open cooldown is
// left to the next Allow, so this is a pure read).
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

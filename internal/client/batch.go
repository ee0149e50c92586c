package client

import (
	"context"
	"sync"
	"time"

	"github.com/hybridsel/hybridsel/internal/server"
)

// batcher collects concurrent decide-only calls for up to a time window
// (or maxBatch requests, whichever first) and flushes them as one batched
// /v2/decide call. Duplicate (region, bindings) pairs inside a window
// ride DecideBatch's client-side coalescing.
type batcher struct {
	c      *Client
	window time.Duration
	max    int

	mu      sync.Mutex
	pending []*batchItem
	timer   *time.Timer
	closed  bool
}

// batchItem is one caller waiting for its slice of a batched call.
type batchItem struct {
	req server.DecideRequest
	flight
}

func newBatcher(c *Client, window time.Duration, max int) *batcher {
	return &batcher{c: c, window: window, max: max}
}

// decide enqueues one request and waits for its batch to flush.
func (b *batcher) decide(ctx context.Context, req server.DecideRequest) (*Verdict, error) {
	it := &batchItem{req: req, flight: flight{done: make(chan struct{})}}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return b.c.decideCoalesced(ctx, req)
	}
	b.pending = append(b.pending, it)
	var flushNow []*batchItem
	if len(b.pending) >= b.max {
		flushNow = b.take()
	} else if b.timer == nil {
		b.timer = time.AfterFunc(b.window, b.flushTimer)
	}
	b.mu.Unlock()
	if flushNow != nil {
		b.flush(flushNow)
	}
	select {
	case <-it.done:
		return it.v, it.err
	case <-ctx.Done():
		// The batch still completes server-side; this caller just stops
		// waiting for it.
		return nil, ctx.Err()
	}
}

// take removes and returns the pending items; caller holds the lock.
func (b *batcher) take() []*batchItem {
	items := b.pending
	b.pending = nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return items
}

func (b *batcher) flushTimer() {
	b.mu.Lock()
	items := b.take()
	b.mu.Unlock()
	b.flush(items)
}

// flush sends one batched call and distributes results positionally.
func (b *batcher) flush(items []*batchItem) {
	if len(items) == 0 {
		return
	}
	reqs := make([]server.DecideRequest, len(items))
	for i, it := range items {
		reqs[i] = it.req
	}
	// Requests were already counted when callers entered Decide, so this
	// goes through the uncounted inner batch path.
	verdicts, err := b.c.decideBatch(context.Background(), reqs)
	for i, it := range items {
		if err != nil {
			it.err = err
		} else {
			v := verdicts[i]
			it.v = &v
		}
		close(it.done)
	}
}

// close flushes whatever is pending and routes later calls around the
// batcher.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	items := b.take()
	b.mu.Unlock()
	b.flush(items)
}

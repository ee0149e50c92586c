package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/wire"
)

// This file holds the laws of a StreamConn's waiter slots: stream IDs
// leave in order, a slot carries one call at a time and only that call's
// answer, every unit of credit comes back exactly once, and a dying
// connection fails each waiting call exactly once.

// streamPeer is the server end of a StreamConn, played by the test over
// net.Pipe: it grants credit and hands over every request frame it reads,
// in wire order; the test answers them.
type streamPeer struct {
	conn net.Conn
	reqs chan *wire.Frame // closed when the connection ends
	mu   sync.Mutex       // one answer at a time
}

func newStreamPeer(t *testing.T, credit uint64) (*StreamConn, *streamPeer) {
	t.Helper()
	cli, srv := net.Pipe()
	p := &streamPeer{conn: srv, reqs: make(chan *wire.Frame, 4096)}
	go func() { _, _ = srv.Write(wire.AppendCredit(nil, credit)) }()
	sc, err := newStreamConn(cli, time.Now().Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(p.reqs)
		sr := wire.NewStreamReader(srv)
		for {
			f, err := sr.Next()
			if err != nil {
				return
			}
			p.reqs <- f
		}
	}()
	t.Cleanup(func() { sc.Close(); srv.Close() })
	return sc, p
}

// answer sends the stream response to id, its verdict the given one.
func (p *streamPeer) answer(id uint64, verdict string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, _ = p.conn.Write(wire.AppendStreamResponse(nil, id, &wire.Response{Region: "r", Verdict: verdict}))
}

// next is the next request frame the peer read, or a failure after 5 s.
func (p *streamPeer) next(t *testing.T) *wire.Frame {
	t.Helper()
	select {
	case f, ok := <-p.reqs:
		if !ok {
			t.Fatal("the connection ended")
		}
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("no request arrived")
		return nil
	}
}

// slotsIn counts the waiter slots in the given state.
func slotsIn(sc *StreamConn, state uint64) int {
	n := 0
	for i := range sc.slots {
		if sc.slots[i].tag.Load()&3 == state {
			n++
		}
	}
	return n
}

// freeStack lists the slots on the free stack, top first, leaving it as
// it was.
func freeStack(sc *StreamConn) []uint32 {
	var out []uint32
	for {
		i, ok := sc.pop()
		if !ok {
			break
		}
		out = append(out, i)
	}
	for k := len(out) - 1; k >= 0; k-- {
		sc.push(out[k])
	}
	return out
}

// wholeCredit fails t unless every slot is free and on the free stack
// exactly once, its channel empty.
func wholeCredit(t *testing.T, sc *StreamConn) {
	t.Helper()
	free := freeStack(sc)
	seen := map[uint32]bool{}
	for _, i := range free {
		if seen[i] {
			t.Fatalf("slot %d is on the free stack twice: %v", i, free)
		}
		seen[i] = true
	}
	if len(free) != len(sc.slots) || slotsIn(sc, slotFree) != len(sc.slots) {
		t.Fatalf("%d of %d slots on the free stack, %d free", len(free), len(sc.slots), slotsIn(sc, slotFree))
	}
	for i := range sc.slots {
		if n := len(sc.slots[i].ch); n != 0 {
			t.Fatalf("slot %d holds %d undelivered answers", i, n)
		}
	}
}

// TestStreamIDsLeaveInOrder: 32 callers on a window of 8 — most of them
// waiting for credit at any time — put only strictly increasing stream IDs
// on the wire, and each gets its own answer.
func TestStreamIDsLeaveInOrder(t *testing.T) {
	sc, p := newStreamPeer(t, 8)
	const callers, perCaller = 32, 50
	var ids []uint64
	read := make(chan struct{})
	go func() {
		defer close(read)
		for f := range p.reqs {
			ids = append(ids, f.StreamID)
			p.answer(f.StreamID, f.Req.Region)
		}
	}()
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func() {
			for i := 0; i < perCaller; i++ {
				token := fmt.Sprintf("g%d-%d", g, i)
				resp, err := sc.Decide(context.Background(), &wire.Request{Region: token})
				if err == nil && resp.Verdict != token {
					err = fmt.Errorf("call %s was answered %q", token, resp.Verdict)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < callers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	sc.Close()
	<-read // the peer's reader ends with the connection: ids is complete
	if len(ids) != callers*perCaller {
		t.Fatalf("%d requests on the wire, want %d", len(ids), callers*perCaller)
	}
	for k := 1; k < len(ids); k++ {
		if ids[k] <= ids[k-1] {
			t.Fatalf("stream ID %d left after %d (requests %d and %d)", ids[k], ids[k-1], k, k+1)
		}
	}
	wholeCredit(t, sc)
}

// TestStreamSlotReuse is the slot law. A call abandoned by its context or
// its deadline keeps its slot, and the slot's unit of credit, until its
// answer arrives; that answer — and any repeat of it — never reaches the
// slot's next owner. Over a storm of answered and abandoned calls every
// unit of credit returns exactly once, and a dying connection fails every
// waiting call exactly once and frees every abandoned slot.
func TestStreamSlotReuse(t *testing.T) {
	for _, giveUp := range []string{"ctx", "deadline"} {
		t.Run("late answer/"+giveUp, func(t *testing.T) {
			sc, p := newStreamPeer(t, 1) // one slot: the next call is its next owner
			ctx, cancel := context.WithCancel(context.Background())
			expire := make(chan time.Time, 1)
			abandoned := make(chan error, 1)
			go func() {
				_, err := sc.decide(ctx, &wire.Request{Region: "a"}, expire)
				abandoned <- err
			}()
			fa := p.next(t)
			if giveUp == "ctx" {
				cancel()
			} else {
				expire <- time.Now()
			}
			if err := <-abandoned; err == nil {
				t.Fatal("the abandoned call returned no error")
			}
			cancel()
			if slotsIn(sc, slotAbandoned) != 1 {
				t.Fatalf("slot states after giving up: %d abandoned, want 1", slotsIn(sc, slotAbandoned))
			}

			got := make(chan *wire.Response, 1)
			go func() {
				resp, err := sc.Decide(context.Background(), &wire.Request{Region: "b"})
				if err != nil {
					t.Error(err)
				}
				got <- resp
			}()
			select {
			case f := <-p.reqs:
				t.Fatalf("a second call went out (%+v) while the only unit of credit is abandoned, not answered", f)
			case <-time.After(20 * time.Millisecond):
			}
			p.answer(fa.StreamID, "late a")
			fb := p.next(t)
			if fb.StreamID <= fa.StreamID || fb.Req.Region != "b" {
				t.Fatalf("next call went out as %d (%+v) after %d", fb.StreamID, fb.Req, fa.StreamID)
			}
			p.answer(fa.StreamID, "late a, repeated")
			p.answer(fb.StreamID, "b")
			if resp := <-got; resp == nil || resp.Verdict != "b" {
				t.Fatalf("the slot's next owner got %+v, want its own answer", resp)
			}
			wholeCredit(t, sc)
		})
	}

	t.Run("credit returns once", func(t *testing.T) {
		const credit, callers, perCaller = 4, 16, 200
		sc, p := newStreamPeer(t, credit)
		var answering sync.WaitGroup
		dispatched := make(chan struct{})
		go func() {
			defer close(dispatched)
			r := rand.New(rand.NewSource(1))
			for f := range p.reqs {
				delay, repeat := time.Duration(r.Intn(100))*time.Microsecond, r.Intn(8) == 0
				answering.Add(1)
				go func() {
					defer answering.Done()
					time.Sleep(delay)
					p.answer(f.StreamID, f.Req.Region)
					if repeat {
						p.answer(f.StreamID, "repeat of "+f.Req.Region)
					}
				}()
			}
		}()
		var answered, abandoned atomic.Int64
		errs := make(chan error, callers)
		for g := 0; g < callers; g++ {
			go func() {
				r := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < perCaller; i++ {
					token := fmt.Sprintf("g%d-%d", g, i)
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(r.Intn(150))*time.Microsecond)
					resp, err := sc.Decide(ctx, &wire.Request{Region: token})
					cancel()
					switch {
					case errors.Is(err, context.DeadlineExceeded):
						abandoned.Add(1)
					case err != nil:
						errs <- err
						return
					case resp.Verdict != token:
						errs <- fmt.Errorf("call %s was answered %q", token, resp.Verdict)
						return
					default:
						answered.Add(1)
					}
				}
				errs <- nil
			}()
		}
		for g := 0; g < callers; g++ {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		if answered.Load() == 0 || abandoned.Load() == 0 {
			t.Fatalf("%d calls answered and %d abandoned: the storm needs both", answered.Load(), abandoned.Load())
		}
		for deadline := time.Now().Add(5 * time.Second); slotsIn(sc, slotFree) != credit; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d slots free after every answer", slotsIn(sc, slotFree), credit)
			}
		}
		wholeCredit(t, sc)
		sc.Close()
		<-dispatched
		answering.Wait()
	})

	t.Run("die fails each once", func(t *testing.T) {
		const credit, waiting, giving, starved = 8, 5, 3, 2
		sc, p := newStreamPeer(t, credit)
		ctx, cancel := context.WithCancel(context.Background())
		gaveUp, failed := make(chan error, giving), make(chan error, waiting+starved)
		for g := 0; g < giving; g++ {
			go func() { _, err := sc.Decide(ctx, &wire.Request{Region: "gives up"}); gaveUp <- err }()
		}
		for g := 0; g < giving; g++ {
			p.next(t)
		}
		cancel()
		for g := 0; g < giving; g++ {
			if err := <-gaveUp; !errors.Is(err, context.Canceled) {
				t.Fatalf("a call given up returned %v", err)
			}
		}
		for g := 0; g < waiting+starved; g++ {
			go func() { _, err := sc.Decide(context.Background(), &wire.Request{Region: "waits"}); failed <- err }()
		}
		for g := 0; g < waiting; g++ {
			p.next(t)
		}
		for deadline := time.Now().Add(5 * time.Second); sc.starved.Load() != starved; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d callers waiting for credit, want %d", sc.starved.Load(), starved)
			}
		}
		if slotsIn(sc, slotWaiting) != waiting || slotsIn(sc, slotAbandoned) != giving {
			t.Fatalf("%d slots waiting and %d abandoned, want %d and %d",
				slotsIn(sc, slotWaiting), slotsIn(sc, slotAbandoned), waiting, giving)
		}

		sc.Close()
		for g := 0; g < waiting+starved; g++ {
			select {
			case err := <-failed:
				if !errors.Is(err, errStreamBroken) {
					t.Fatalf("a call on the dead connection returned %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("call %d of %d still waits on a dead connection", g+1, waiting+starved)
			}
		}
		wholeCredit(t, sc)
		if _, err := sc.Decide(context.Background(), &wire.Request{Region: "after"}); !errors.Is(err, errStreamBroken) {
			t.Fatalf("a call after death returned %v", err)
		}
		wholeCredit(t, sc)
	})
}

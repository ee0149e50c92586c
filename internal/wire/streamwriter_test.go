package wire

import (
	"errors"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// recordingWriter keeps every Write's bytes. While gate is set a Write
// announces itself on entered and parks until the test sends it the error
// to fail with, or nil to go through.
type recordingWriter struct {
	mu      sync.Mutex
	writes  [][]byte
	gate    atomic.Pointer[chan error]
	entered chan struct{}
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	if g := w.gate.Load(); g != nil {
		w.entered <- struct{}{}
		if err := <-*g; err != nil {
			return 0, err
		}
	}
	w.mu.Lock()
	w.writes = append(w.writes, append([]byte(nil), p...))
	w.mu.Unlock()
	return len(p), nil
}

// credits decodes what each Write carried: the Credit values of its frames.
func (w *recordingWriter) credits(t *testing.T) [][]uint64 {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([][]uint64, len(w.writes))
	for i, p := range w.writes {
		frames, err := DecodeAll(p)
		if err != nil {
			t.Fatalf("write %d is not whole frames: %v", i, err)
		}
		for _, f := range frames {
			out[i] = append(out[i], f.Credit)
		}
	}
	return out
}

// writerUnderTest is a StreamWriter onto a recordingWriter, with what its
// callbacks were told.
type writerUnderTest struct {
	*StreamWriter
	rec    *recordingWriter
	yield  atomic.Bool
	mu     sync.Mutex
	wrote  []int
	failed []error
}

func newWriterUnderTest() *writerUnderTest {
	u := &writerUnderTest{rec: &recordingWriter{entered: make(chan struct{}, 1)}}
	u.StreamWriter = &StreamWriter{W: u.rec, Yield: u.yield.Load,
		Wrote: func(frames int) { u.mu.Lock(); u.wrote = append(u.wrote, frames); u.mu.Unlock() },
		Fail:  func(err error) { u.mu.Lock(); u.failed = append(u.failed, err); u.mu.Unlock() }}
	return u
}

// put appends one Credit frame carrying n.
func (u *writerUnderTest) put(n uint64, hold bool) { u.End(AppendCredit(u.Begin(), n), hold) }

// TestStreamWriterRidersShareTheNextWrite: frames appended while a Write
// is under way leave together in one further Write, by the flusher that
// was parked; the counts handed to wrote are the frames of each Write.
func TestStreamWriterRidersShareTheNextWrite(t *testing.T) {
	for _, yield := range []bool{false, true} {
		u := newWriterUnderTest()
		u.yield.Store(yield)
		gate := make(chan error)
		u.rec.gate.Store(&gate)

		flusher := make(chan struct{})
		go func() { defer close(flusher); u.put(0, false) }()
		<-u.rec.entered // the flusher is inside its Write

		const riders = 16
		var wg sync.WaitGroup
		for i := 1; i <= riders; i++ {
			wg.Add(1)
			go func() { defer wg.Done(); u.put(uint64(i), false) }()
		}
		wg.Wait() // none of them blocks behind the Write
		u.rec.gate.Store(nil)
		gate <- nil
		<-flusher

		got := u.rec.credits(t)
		if len(got) != 2 || len(got[0]) != 1 || len(got[1]) != riders {
			t.Fatalf("yield=%v: writes carried %v, want the flusher's frame, then all %d riders", yield, got, riders)
		}
		sort.Slice(got[1], func(i, j int) bool { return got[1][i] < got[1][j] })
		for i, n := range got[1] {
			if n != uint64(i+1) {
				t.Fatalf("yield=%v: riders' frames %v: one is lost or doubled", yield, got[1])
			}
		}
		if len(u.wrote) != 2 || u.wrote[0] != 1 || u.wrote[1] != riders || len(u.failed) != 0 {
			t.Fatalf("yield=%v: wrote %v failed %v, want [1 %d] and no failure", yield, u.wrote, u.failed, riders)
		}
	}
}

// TestStreamWriterHold: a held frame waits for the next unheld one, or for
// a Flush; a Flush with nothing pending writes nothing.
func TestStreamWriterHold(t *testing.T) {
	u := newWriterUnderTest()
	u.Flush()
	u.put(1, true)
	u.put(2, true)
	if got := u.rec.credits(t); len(got) != 0 {
		t.Fatalf("held frames left on their own: %v", got)
	}
	u.put(3, false)
	u.put(4, true)
	u.Flush()
	u.Flush()
	if got, want := u.rec.credits(t), [][]uint64{{1, 2, 3}, {4}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("writes carried %v, want %v", got, want)
	}
	if len(u.wrote) != 2 || u.wrote[0] != 3 || u.wrote[1] != 1 {
		t.Fatalf("wrote %v, want [3 1]", u.wrote)
	}
}

// TestStreamWriterFailureLatches: the first failed Write reaches fail
// once; the frames that rode behind it and every later one are dropped,
// and nothing is written again.
func TestStreamWriterFailureLatches(t *testing.T) {
	u := newWriterUnderTest()
	gate := make(chan error)
	u.rec.gate.Store(&gate)
	flusher := make(chan struct{})
	go func() { defer close(flusher); u.put(0, false) }()
	<-u.rec.entered
	u.put(1, false) // rides behind the Write about to fail
	boom := errors.New("boom")
	gate <- boom
	<-flusher
	u.rec.gate.Store(nil)

	u.put(2, false)
	u.put(3, true)
	u.Flush()
	if got := u.rec.credits(t); len(got) != 0 {
		t.Fatalf("written after the failure: %v", got)
	}
	if len(u.failed) != 1 || u.failed[0] != boom {
		t.Fatalf("fail called with %v, want once with %v", u.failed, boom)
	}
	if len(u.wrote) != 1 || u.wrote[0] != 1 {
		t.Fatalf("wrote %v, want only the failed Write's [1]", u.wrote)
	}
}

// TestStreamWriterConcurrent (run with -race): whatever the interleaving
// of appenders, holders and flushers, every frame arrives once, whole, and
// the frames and Writes reported add up to the frames appended and the
// Writes made.
func TestStreamWriterConcurrent(t *testing.T) {
	u := newWriterUnderTest()
	u.yield.Store(true)
	const goroutines, each = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				u.put(uint64(g*each+i), i%3 == 0)
				if i%7 == 0 {
					u.Flush()
				}
			}
			u.Flush()
		}()
	}
	wg.Wait()

	seen := make(map[uint64]bool, goroutines*each)
	writes := u.rec.credits(t)
	for _, w := range writes {
		for _, n := range w {
			if seen[n] {
				t.Fatalf("frame %d written twice", n)
			}
			seen[n] = true
		}
	}
	if len(seen) != goroutines*each {
		t.Fatalf("%d distinct frames arrived, want %d", len(seen), goroutines*each)
	}
	frames := 0
	for i, n := range u.wrote {
		if n != len(writes[i]) {
			t.Fatalf("write %d reported %d frames and carried %d", i, n, len(writes[i]))
		}
		frames += n
	}
	if frames != goroutines*each || len(u.wrote) != len(writes) {
		t.Fatalf("reported %d frames in %d writes; %d frames in %d writes were made",
			frames, len(u.wrote), goroutines*each, len(writes))
	}
	if len(writes) >= goroutines*each {
		t.Fatalf("%d frames took %d writes: nothing was combined", goroutines*each, len(writes))
	}
}

package server

import (
	"bytes"
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/wire"
)

// TestBareStreamConnNeverGetsEpochs: a connection that never asks for a
// lease receives, across invalidations, exactly what it received before
// leases existed — its credit grant and one unstamped response per request,
// byte for byte their canonical encodings — while a connection that asked
// is stamped and told of every advance.
func TestBareStreamConnNeverGetsEpochs(t *testing.T) {
	s := testServer(t, Config{})
	addr := startStreamServer(t, s)
	bare, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	leased, leasedR, _ := dialStream(t, addr)

	ask := wire.Request{Region: "gemm", Names: []string{"n"}, Values: []int64{1100}, Lease: true}
	if _, err := leased.Write(wire.AppendStreamRequest(nil, 1, &ask)); err != nil {
		t.Fatal(err)
	}
	f, err := leasedR.Next()
	if err != nil || f.Type != wire.TypeStreamResponse || f.Resp.Epoch != s.rt.Epoch() {
		t.Fatalf("a leased request was answered %+v, %v; want a response stamped %d", f, err, s.rt.Epoch())
	}
	const rounds = 4
	for i := uint64(1); i <= rounds; i++ {
		streamReq(t, bare, i, "gemm", 1100)
		if err := s.rt.InvalidateDecisions("gemm"); err != nil {
			t.Fatal(err)
		}
		// The leased connection hears of this advance (perhaps folded into
		// the next): the pusher ran, and it wrote nothing to bare.
		for want := s.rt.Epoch(); f.Epoch < want; {
			if f, err = leasedR.Next(); err != nil || f.Type != wire.TypeEpoch {
				t.Fatalf("round %d: the leased connection read %+v, %v; want an epoch frame", i, f, err)
			}
		}
	}
	streamReq(t, bare, rounds+1, "gemm", 1100)

	// Everything bare received, read until it has been quiet for 100 ms.
	var got []byte
	buf := make([]byte, 4096)
	for {
		_ = bare.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		n, err := bare.Read(buf)
		got = append(got, buf[:n]...)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	frames, err := wire.DecodeAll(got)
	if err != nil {
		t.Fatal(err)
	}
	want := wire.AppendCredit(nil, defaultStreamCredit)
	for i, f := range frames[1:] {
		if f.Type != wire.TypeStreamResponse || f.StreamID != uint64(i+1) || f.Resp.Err != nil || f.Resp.Epoch != 0 {
			t.Fatalf("frame %d on the bare connection: %+v", i+1, f)
		}
		want = wire.AppendStreamResponse(want, f.StreamID, f.Resp)
	}
	if len(frames) != rounds+2 || !bytes.Equal(got, want) {
		t.Fatalf("the bare connection received %d frames, %x; want its grant and %d responses, %x", len(frames), got, rounds+1, want)
	}
}

package server

import (
	"errors"
	"io"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/hybridsel/hybridsel/internal/wire"
)

// FuzzStreamConn writes arbitrary bytes to a live serveStreamConn over a
// socket pair and half-closes: the bytes half of "hostile stream peers"
// (a peer that stalls needs read deadlines the server does not have yet).
// Invariants: no panic; the credit handshake is the first frame out; every
// frame after it decodes and is either the connection-level error or the
// response to a stream ID that was sent, at most once per time it was
// sent; the runtime decides and launches no more than the well-formed
// frames asked for; and serveStreamConn returns — with its executes, which
// it waits for — within the deadline.
func FuzzStreamConn(f *testing.F) {
	rt := fuzzRuntime(f, nil)
	s, err := New(Config{Runtime: rt, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		f.Fatal(err)
	}
	s.streamCredit = 4
	l, err := net.Listen("unix", filepath.Join(f.TempDir(), "s"))
	if err != nil {
		f.Fatal(err)
	}
	defer l.Close()

	// internal/wire's corpora: every frame type, and the crashers its
	// fuzzers found.
	seeds, _ := filepath.Glob("../wire/testdata/fuzz/*/*")
	if len(seeds) == 0 {
		f.Fatal("no seeds under ../wire/testdata/fuzz")
	}
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		_, lit, _ := strings.Cut(string(raw), "[]byte(")
		b, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		f.Add([]byte(b))
	}
	// A valid burst — decides in both binding forms around more executes
	// than the window holds — whole, and with one byte flipped at a time.
	var burst []byte
	for id := uint64(1); id <= 8; id++ {
		req := wireReqFor("mvt1", map[string]int64{"n": int64(60 + id)})
		if id%2 == 0 {
			req = namedReqFor("mvt1", map[string]int64{"n": int64(60 + id)})
		}
		req.Execute = 3 <= id && id <= 7
		burst = wire.AppendStreamRequest(burst, id, &req)
	}
	f.Add(burst)
	for at := 0; at < len(burst); at += 5 {
		flipped := append([]byte(nil), burst...)
		flipped[at] ^= 0x55
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// What a server may be asked by these bytes: the stream requests
		// in front of the first thing that is not a well-formed frame.
		sent := map[uint64]int{}
		var decides, executes uint64
		for rest := data; ; {
			fr, n, err := wire.DecodeFrame(rest)
			if err != nil {
				break
			}
			if fr.Type == wire.TypeStreamRequest {
				sent[fr.StreamID]++
				if fr.Req.Execute {
					executes++
				} else {
					decides++
				}
			}
			rest = rest[n:]
		}
		before := rt.Metrics()

		conn, err := net.Dial("unix", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		served, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.serveStreamConn(served, served)
		}()
		go func() {
			// The server may hang up on the first bad frame; then the
			// rest has nowhere to go.
			_, _ = conn.Write(data)
			_ = conn.(*net.UnixConn).CloseWrite()
		}()

		conn.SetReadDeadline(time.Now().Add(20 * time.Second))
		sr := wire.NewStreamReader(conn)
		if hello, err := sr.Next(); err != nil || hello.Type != wire.TypeCredit || hello.Credit != 4 {
			t.Fatalf("first frame out is %+v (%v), want the credit grant", hello, err)
		}
		for {
			fr, err := sr.Next()
			if errors.Is(err, wire.ErrMalformed) || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("reading the server's frames: %v", err)
			}
			if err != nil {
				break // hung up: cleanly, or on bytes it had not read
			}
			switch {
			case fr.Type == wire.TypeError:
			case fr.Type != wire.TypeStreamResponse:
				t.Fatalf("server sent frame %+v", fr)
			case sent[fr.StreamID] == 0:
				t.Fatalf("response to stream %d, which was not sent (or answered already): %+v", fr.StreamID, fr.Resp)
			default:
				sent[fr.StreamID]--
			}
		}
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatal("serveStreamConn still running after its peer hung up")
		}
		after := rt.Metrics()
		if d, x := after.Decides-before.Decides, after.Launches-before.Launches; d > decides || x > executes {
			t.Fatalf("runtime decided %d and launched %d for %d well-formed decides and %d executes", d, x, decides, executes)
		}
	})
}

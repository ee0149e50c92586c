package server_test

// An external test package: the regression below drives the server with
// the real client.StreamConn, whose package imports this one.

import (
	"context"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/hybridsel/hybridsel/internal/client"
	"github.com/hybridsel/hybridsel/internal/machine"
	"github.com/hybridsel/hybridsel/internal/offload"
	"github.com/hybridsel/hybridsel/internal/polybench"
	"github.com/hybridsel/hybridsel/internal/server"
	"github.com/hybridsel/hybridsel/internal/wire"
)

// TestStreamFullWindowNeverShed: a client that keeps its whole granted
// window in flight is within its rights and must never be shed. The
// server used to return a credit unit only after handing the response
// to the writer, so the client — which reuses the unit the moment it
// reads the response — could land its next request before the decrement
// and be refused with "queue_full: stream credit exhausted".
func TestStreamFullWindowNeverShed(t *testing.T) {
	rt := offload.NewRuntime(offload.Config{Platform: machine.PlatformP9V100(), Threads: 4})
	k, err := polybench.Get("gemm")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Register(k.IR); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Runtime: rt, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.ServeStream(l)

	sc, err := client.DialStream(client.StreamDialConfig{Addr: l.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	// One connection, the whole default window of callers, each firing
	// back-to-back: the credit in flight sits at the limit throughout.
	const total = 40000
	var next, shed, failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < server.StreamCredit; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > total {
					return
				}
				req := wire.Request{Region: "gemm", Names: []string{"n"}, Values: []int64{64 + i%4}}
				resp, err := sc.Decide(context.Background(), &req)
				switch {
				case err != nil:
					failed.Add(1)
				case resp.Err != nil && resp.Err.Code == server.ErrCodeQueueFull:
					shed.Add(1)
				case resp.Err != nil:
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if shed.Load() != 0 || failed.Load() != 0 {
		t.Fatalf("%d of %d requests shed with queue_full, %d failed otherwise; a client inside its window must see neither",
			shed.Load(), total, failed.Load())
	}
}

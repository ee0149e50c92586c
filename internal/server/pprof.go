package server

import (
	"context"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
)

// PprofServer serves the net/http/pprof handlers on a listener of their
// own, so profiling traffic never competes with (or is exposed on) the
// decision service's address. It is off unless explicitly started; the
// address should stay loopback in production — the pprof endpoints are
// unauthenticated by design.
type PprofServer struct {
	srv *http.Server
	ln  net.Listener
	err chan error
}

// StartPprof begins serving the pprof endpoints on addr (which may use
// port 0 to pick a free port — see Addr). The handlers are mounted on a
// private mux, not http.DefaultServeMux, so importing this package never
// leaks debug handlers into anyone else's server.
func StartPprof(addr string, logger *slog.Logger) (*PprofServer, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &PprofServer{
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: HeaderTimeout},
		ln:  ln,
		err: make(chan error, 1),
	}
	go func() {
		err := p.srv.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		p.err <- err
	}()
	if logger != nil {
		logger.Info("pprof listening", "addr", ln.Addr().String())
	}
	return p, nil
}

// Addr reports the bound listen address (useful with ":0").
func (p *PprofServer) Addr() string { return p.ln.Addr().String() }

// Shutdown stops accepting new profiling requests and waits for in-flight
// ones — a running CPU profile or execution trace finishes its window
// rather than being cut off mid-collection — until ctx expires, at which
// point remaining connections are closed forcibly.
func (p *PprofServer) Shutdown(ctx context.Context) error {
	err := p.srv.Shutdown(ctx)
	if serveErr := <-p.err; err == nil {
		err = serveErr
	}
	return err
}

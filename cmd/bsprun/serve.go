package main

// The -metrics-addr HTTP server: Prometheus text at /metrics, expvar
// JSON at /debug/vars, and the net/http/pprof handlers at
// /debug/pprof/ so a live run can be profiled over HTTP
// (`go tool pprof http://addr/debug/pprof/profile`). The server shuts
// down gracefully: in-flight scrapes finish and the port is released
// before bsprun exits.

import (
	"context"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// expvarRec feeds the published "bsp" expvar. expvar.Publish panics on
// duplicate names, so the variable is published once per process and
// reads whichever recorder the current server installed.
var (
	expvarRec  atomic.Pointer[trace.Recorder]
	expvarOnce sync.Once
)

// metricsServer serves the observability endpoints for one run.
type metricsServer struct {
	srv    *http.Server
	ln     net.Listener
	served chan struct{} // closed when Serve returns
}

// startMetricsServer binds addr and begins serving rec's metrics.
func startMetricsServer(addr string, rec *trace.Recorder) (*metricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return startMetricsServerOn(ln, rec)
}

// startMetricsServerOn serves rec's metrics on an already-bound
// listener. Cluster children pre-bind (":0" picks a free port) so the
// resolved address can be reported to the coordinator before the
// recorder exists.
func startMetricsServerOn(ln net.Listener, rec *trace.Recorder) (*metricsServer, error) {
	expvarRec.Store(rec)
	expvarOnce.Do(func() {
		expvar.Publish("bsp", expvar.Func(func() any { return expvarRec.Load().Metrics().Snapshot() }))
	})
	mux := http.NewServeMux()
	mux.Handle("/metrics", rec.Metrics().Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	// The default pprof mux entries, re-registered here because bsprun
	// serves a private mux: profiles of the live machine carry each
	// rank goroutine's bsp_rank label.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	m := &metricsServer{
		srv:    &http.Server{Handler: mux},
		ln:     ln,
		served: make(chan struct{}),
	}
	go func() {
		defer close(m.served)
		// Serve returns ErrServerClosed after Shutdown; anything else
		// means the listener died, which Shutdown will also surface.
		_ = m.srv.Serve(ln)
	}()
	return m, nil
}

// Addr returns the bound address (useful with ":0").
func (m *metricsServer) Addr() string { return m.ln.Addr().String() }

// Shutdown stops the server gracefully: no new connections, in-flight
// requests get until the deadline, and the port is released before
// Shutdown returns.
func (m *metricsServer) Shutdown(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := m.srv.Shutdown(ctx)
	<-m.served
	return err
}

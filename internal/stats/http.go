package stats

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// debugShutdownTimeout bounds the graceful drain of a debug server's stop
// function: debug requests are short (a profile index, a snapshot), so a
// couple of seconds covers them without stalling CLI exit.
const debugShutdownTimeout = 2 * time.Second

// ServeDebug starts an HTTP server on addr (host:port; ":0" picks a free
// port) serving the pprof profiles under /debug/pprof/ and, next to them,
// h (nil = pprof only). The CLIs pass their -http telemetry handler; the
// daemon passes nil, since its API port already serves its telemetry.
//
// It returns the bound address and a stop function. Stop drains gracefully
// (in-flight debug requests finish, bounded by a short timeout) and falls
// back to an immediate close; serve errors are logged instead of discarded.
func ServeDebug(addr string, h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if h != nil {
		mux.Handle("/", h)
	}
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			slog.Error("stats: debug server failed", "addr", ln.Addr().String(), "err", err)
		}
	}()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), debugShutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			// Stragglers (a long pprof profile, a slow reader) get cut off.
			srv.Close()
		}
	}
	return ln.Addr().String(), stop, nil
}

package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tcor/internal/cluster"
	"tcor/internal/serve"
)

// tap wraps a program handler in the traced run: while on, it records a
// span per request under the request's X-Request-Id and keeps each
// request's duration by the cache disposition the handler answered with.
// Off, it costs one atomic load, so the traced run's untraced phase
// measures the same stack as an untraced run.
type tap struct {
	name, layer string
	rec         *recorder
	on          atomic.Bool

	mu   sync.Mutex
	durs map[string][]time.Duration
	n    int
}

func newTap(name, layer string, rec *recorder) *tap {
	return &tap{name: name, layer: layer, rec: rec, durs: map[string][]time.Duration{}}
}

func (t *tap) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		id := t.rec.begin(t.name, t.layer, r.Header.Get("X-Request-Id"), 0)
		h.ServeHTTP(w, r)
		t.rec.end(id)
		d := time.Since(t0)
		how := w.Header().Get("X-Tcord-Cache")
		t.mu.Lock()
		t.durs[how] = append(t.durs[how], d)
		t.n++
		t.mu.Unlock()
	})
}

// set turns the tap on or off; turning it on forgets what it saw before.
func (t *tap) set(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.durs = map[string][]time.Duration{}
	t.n = 0
	t.mu.Unlock()
	t.on.Store(on)
}

// all returns every recorded duration (ms) and those answered with the
// given dispositions.
func (t *tap) all(dispositions ...string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for k, ds := range t.durs {
		if len(dispositions) > 0 && !contains(dispositions, k) {
			continue
		}
		for _, d := range ds {
			out = append(out, ms(d))
		}
	}
	return out
}

func (t *tap) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// listener serves one handler on a loopback port until stop.
type listener struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	l := &listener{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed after Shutdown
	}()
	return l, nil
}

func (l *listener) stop(ctx context.Context) error {
	err := l.srv.Shutdown(ctx)
	<-l.done
	return err
}

// shard is one daemon: a serve.Server behind a loopback listener, its
// handler tapped in the traced run.
type shard struct {
	srv *serve.Server
	tap *tap // nil when untraced
	l   *listener
}

func startShard(name string, rec *recorder) (*shard, error) {
	s := &shard{srv: serve.NewServer(serve.Options{Logger: slog.New(slog.DiscardHandler)})}
	h := s.srv.Handler()
	if rec != nil {
		s.tap = newTap(name, "serve", rec)
		h = s.tap.wrap(h)
	}
	l, err := listen(h)
	if err != nil {
		return nil, err
	}
	s.l = l
	return s, nil
}

func (s *shard) stop(ctx context.Context) error {
	err := s.l.stop(ctx)
	return errors.Join(err, s.srv.Shutdown(ctx))
}

// gateway is a cluster.Gateway over shards, behind its own listener.
type gateway struct {
	gw     *cluster.Gateway
	tap    *tap
	l      *listener
	shards []*shard
}

func startGateway(nShards int, rec *recorder) (*gateway, error) {
	g := &gateway{}
	var urls []string
	for i := 0; i < nShards; i++ {
		s, err := startShard(fmt.Sprintf("shard-%d", i), rec)
		if err != nil {
			g.stop(context.Background())
			return nil, err
		}
		g.shards = append(g.shards, s)
		urls = append(urls, s.l.url)
	}
	gw, err := cluster.NewGateway(cluster.Options{Shards: urls, HedgeAfter: hedgeAfter, Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		g.stop(context.Background())
		return nil, fmt.Errorf("starting gateway: %w", err)
	}
	g.gw = gw
	h := gw.Handler()
	if rec != nil {
		g.tap = newTap("gateway", "cluster", rec)
		h = g.tap.wrap(h)
	}
	if g.l, err = listen(h); err != nil {
		g.stop(context.Background())
		return nil, err
	}
	return g, nil
}

func (g *gateway) stop(ctx context.Context) error {
	var errs []error
	if g.l != nil {
		errs = append(errs, g.l.stop(ctx))
	}
	if g.gw != nil {
		errs = append(errs, g.gw.Shutdown(ctx))
	}
	for _, s := range g.shards {
		errs = append(errs, s.stop(ctx))
	}
	return errors.Join(errs...)
}

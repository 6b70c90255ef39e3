package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"tcor/internal/resilience"
	"tcor/internal/serve"
	"tcor/internal/serve/client"
	"tcor/internal/stats"
)

// Options configure a Gateway. The zero value is not usable: Shards is
// required.
type Options struct {
	// Shards are the shard daemons' base URLs ("http://host:port"), each
	// a full tcord serving stack. The list is the ring membership — order
	// does not affect key placement (names are hashed), but it is the
	// index space of per-shard metrics and /v1/ring rows.
	Shards []string
	// VNodes is the virtual-node count per shard on the consistent-hash
	// ring (0 = DefaultVNodes).
	VNodes int
	// HedgeAfter controls request hedging on /v1/simulate: positive is a
	// fixed delay after which the gateway issues a second copy of the
	// request to the next shard on the ring; zero (the default) adapts
	// the delay to the observed p99 of proxied simulate latency (the
	// gw.proxy.duration histogram), floored at minHedge and disabled
	// until HedgeWarmup samples exist; negative disables hedging.
	HedgeAfter time.Duration
	// MaxSweepItems bounds one /v1/sweep at the gateway (0 = 1024). The
	// gateway chunks sweeps into sub-sweeps of at most serve.MaxSweepItems,
	// so its bound is naturally larger than a single shard's.
	MaxSweepItems int
	// MaxBodyBytes bounds request bodies; larger ones get 413 (0 = 1 MiB).
	MaxBodyBytes int64
	// DefaultTimeout is the per-request deadline when the request does
	// not carry one (0 = 60s). It bounds the whole hedged/failover chain.
	DefaultTimeout time.Duration
	// Retry configures the per-shard client's retry policy (nil = 3
	// attempts, 50ms base, 1s cap). Transient shard blips are absorbed
	// here; sustained failure surfaces to the gateway, trips the shard's
	// breaker and triggers failover.
	Retry *resilience.RetryPolicy
	// Breaker configures the per-shard circuit breakers the router
	// consults (nil = 8-outcome window, 0.5 ratio, 2s cooldown). An open
	// breaker takes its shard out of the candidate order until a probe
	// succeeds.
	Breaker *resilience.BreakerConfig
	// Registry receives the gateway's metrics (nil = private, readable
	// via Gateway.Registry).
	Registry *stats.Registry
	// Logger receives the access log and lifecycle events (nil =
	// discard).
	Logger *slog.Logger
	// Chaos, when non-nil, is evaluated at resilience.SiteProxy once per
	// upstream attempt: an injected fault aborts the attempt before it
	// reaches the wire, exercising failover without a real shard death.
	Chaos *resilience.Injector
	// TraceCapacity bounds the gateway's in-memory span trace (0 = 4096
	// spans, negative = tracing disabled). Every request gets a root span;
	// each upstream attempt — hedge, failover, cache probe, sub-sweep —
	// becomes a child span whose identity is propagated to the shard in the
	// traceparent header, so the cluster trace collector can stitch the
	// per-process span sets back into one export.
	TraceCapacity int
}

// HedgeWarmup is how many proxied simulate latencies the adaptive hedger
// wants before it starts hedging: quantiles over fewer samples whipsaw.
const HedgeWarmup = 16

const (
	// minHedge floors the adaptive hedge delay so a burst of cache hits
	// cannot drive it toward zero and double every request.
	minHedge = 50 * time.Millisecond
	// probeTimeout bounds the peer cache probe issued to a key's owner
	// before a failover shard is allowed to simulate it.
	probeTimeout = time.Second
)

func (o Options) withDefaults() Options {
	if o.VNodes <= 0 {
		o.VNodes = DefaultVNodes
	}
	if o.MaxSweepItems <= 0 {
		o.MaxSweepItems = 1024
	}
	if o.Retry == nil {
		o.Retry = &resilience.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   50 * time.Millisecond,
			MaxDelay:    time.Second,
		}
	}
	if o.Breaker == nil {
		o.Breaker = &resilience.BreakerConfig{
			Window:       8,
			MinSamples:   3,
			FailureRatio: 0.5,
			Cooldown:     2 * time.Second,
		}
	}
	if o.Registry == nil {
		o.Registry = stats.NewRegistry()
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return o
}

// shard is one upstream daemon: a typed client (retry inside) plus the
// circuit breaker the router consults before sending work its way. idx is
// the shard's position in Options.Shards — the index space of per-shard
// metrics, the `shard` rollup label and the stitched trace's track names.
type shard struct {
	name   string
	idx    int
	client *client.Client
	brk    *resilience.Breaker
}

// Gateway fronts a set of tcord shard daemons with the same public API a
// single daemon serves, through the same serve.Front a daemon mounts.
// Simulations route to the shard owning their content address; sweeps fan
// out as per-owner sub-sweeps and reassemble in item order. Responses are
// byte-identical to a single node serving the same request.
type Gateway struct {
	opts    Options
	ring    *Ring
	shards  []*shard
	reg     *stats.Registry
	tracer  *stats.Tracer // nil when TraceCapacity < 0
	front   *serve.Front
	handler http.Handler

	proxyDur   *stats.Histogram // successful proxied /v1/simulate calls, ns
	hedges     *stats.Counter
	hedgeWins  *stats.Counter
	failovers  *stats.Counter
	probeHits  *stats.Counter
	fallback   *stats.Counter // sweep items recovered item-by-item
	jobSubmits *stats.Counter // async submissions routed to a job's owner
	jobProxied *stats.Counter // job reads/cancels proxied to a shard
}

// NewGateway builds a gateway over opts.Shards. The shard list is fixed
// for the gateway's lifetime.
func NewGateway(opts Options) (*Gateway, error) {
	opts = opts.withDefaults()
	ring, err := NewRing(opts.Shards, opts.VNodes)
	if err != nil {
		return nil, err
	}
	reg := opts.Registry
	g := &Gateway{
		opts:       opts,
		ring:       ring,
		reg:        reg,
		proxyDur:   reg.Histogram("gw.proxy.duration"),
		hedges:     reg.Counter("gw.hedges"),
		hedgeWins:  reg.Counter("gw.hedge.wins"),
		failovers:  reg.Counter("gw.failovers"),
		probeHits:  reg.Counter("gw.probe.hits"),
		fallback:   reg.Counter("gw.sweep.fallbackItems"),
		jobSubmits: reg.Counter("gw.jobs.submits"),
		jobProxied: reg.Counter("gw.jobs.proxied"),
	}
	for i, name := range opts.Shards {
		cfg := *opts.Breaker
		g.shards = append(g.shards, &shard{
			name: name,
			idx:  i,
			client: client.New(name, http.DefaultClient,
				client.WithRetry(*opts.Retry),
				client.WithMetricsPrefix(reg, "gw.shard."+strconv.Itoa(i))),
			brk: resilience.NewBreaker(cfg),
		})
	}
	g.registerInvariants()

	g.front = serve.NewFront(serve.FrontConfig{
		Tier:           "gateway",
		Category:       "cluster",
		Metrics:        "gw",
		Classes:        []int{2, 3, 4, 5},
		Panics:         "gw.panics",
		Registry:       reg,
		Logger:         opts.Logger,
		TraceCapacity:  opts.TraceCapacity,
		MaxBodyBytes:   opts.MaxBodyBytes,
		DefaultTimeout: opts.DefaultTimeout,
		// Lift the caller's tenant credential into the context: the
		// per-shard client re-applies it on every attempt, so quota and
		// cache accounting follow the caller through retries, hedges and
		// failovers alike. The gateway never resolves the credential
		// itself — an unknown key is the owning shard's 401 to give,
		// passed through unchanged.
		Enter: func(_ http.ResponseWriter, r *http.Request) (*http.Request, func() []slog.Attr) {
			return r.WithContext(serve.ContextWithTenantKey(r.Context(), serve.TenantKeyFromRequest(r))), nil
		},
		Classify: classify,
		Degraded: func() string {
			for _, sh := range g.shards {
				if sh.brk.State() != resilience.Open {
					return ""
				}
			}
			return "all shard circuits open"
		},
	})
	g.tracer = g.front.Tracer()
	mux := http.NewServeMux()
	g.front.Mount(mux)
	mux.HandleFunc("/v1/ring", g.front.GetJSON(g.ringInfo))
	mux.HandleFunc("/v1/simulate", g.handleSimulate)
	mux.HandleFunc("/v1/sweep", g.handleSweep)
	mux.HandleFunc("/v1/arena", g.handleArena)
	mux.HandleFunc("/v1/jobs", g.front.GetJSON(g.listJobs))
	mux.HandleFunc("/v1/jobs/", g.handleJob)
	mux.HandleFunc("/v1/cluster/trace/", g.handleClusterTrace)
	mux.HandleFunc("/v1/cluster/metrics", g.handleClusterMetrics)
	mux.HandleFunc("/v1/cluster/health", g.front.GetJSON(g.clusterHealth))
	g.handler = g.front.Handler(mux)
	return g, nil
}

// registerInvariants wires the routing-layer accounting identities.
func (g *Gateway) registerInvariants() {
	g.reg.RegisterInvariant("gw.hedgeWinsBounded", func(snap stats.Snapshot) error {
		if wins, hedges := snap.Get("gw.hedge.wins"), snap.Get("gw.hedges"); wins > hedges {
			return fmt.Errorf("hedge wins %d exceed hedges issued %d", wins, hedges)
		}
		return nil
	})
	g.reg.RegisterInvariant("gw.probeHitsBounded", func(snap stats.Snapshot) error {
		// A peer cache probe only happens on a failover attempt.
		if hits, fo := snap.Get("gw.probe.hits"), snap.Get("gw.failovers"); hits > fo {
			return fmt.Errorf("probe hits %d exceed failovers %d", hits, fo)
		}
		return nil
	})
}

// Registry returns the gateway's metric registry.
func (g *Gateway) Registry() *stats.Registry { return g.reg }

// Ring returns the gateway's placement ring.
func (g *Gateway) Ring() *Ring { return g.ring }

// CheckInvariants verifies the registry's registered invariants.
func (g *Gateway) CheckInvariants() error { return g.reg.Check() }

// Handler returns the gateway's HTTP handler: its routes behind the shared
// serve.Front.
func (g *Gateway) Handler() http.Handler { return g.handler }

// Start listens on addr (":0" picks a free port) and serves in the
// background, returning the bound address. Pair with Shutdown.
func (g *Gateway) Start(addr string) (string, error) { return g.front.Start(addr, g.handler) }

// Shutdown drains the gateway: readiness flips to 503, new simulations
// are refused, in-flight proxied requests run to completion.
func (g *Gateway) Shutdown(ctx context.Context) error { return g.front.Shutdown(ctx) }

// classify is the gateway's error mapping inside the shared front: a
// shard's own rejection passes through unchanged (status, code, message
// and Retry-After hint), a ring with every candidate's circuit open is 503
// "all_shards_unavailable", and any other failure is 502 "upstream_error".
func classify(err error) error {
	var ae *client.APIError
	if errors.As(err, &ae) {
		return serve.NewError(ae.Status, ae.Code, ae.Message, ae.RetryAfter) // zero without a hint
	}
	var oe *resilience.OpenError
	if errors.As(err, &oe) {
		return serve.NewError(http.StatusServiceUnavailable, "all_shards_unavailable",
			"no shard available (circuits open); retry later", oe.RetryIn)
	}
	return serve.NewError(http.StatusBadGateway, "upstream_error", err.Error(), 0)
}

// RingInfo is the body of GET /v1/ring: the cluster topology as the
// gateway sees it.
type RingInfo struct {
	VNodes int         `json:"vnodes"`
	Shards []ShardInfo `json:"shards"`
}

// ShardInfo is one ring member and its router-side circuit state.
type ShardInfo struct {
	Name    string `json:"name"`
	Breaker string `json:"breaker"`
}

func (g *Gateway) ringInfo(*http.Request) (any, error) {
	info := RingInfo{VNodes: g.opts.VNodes}
	for _, sh := range g.shards {
		info.Shards = append(info.Shards, ShardInfo{
			Name:    sh.name,
			Breaker: sh.brk.State().String(),
		})
	}
	return info, nil
}

// --- simulate routing ---

func (g *Gateway) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req serve.SimulateRequest
	if _, ok := g.front.BeginSim(w, r, &req); !ok {
		return
	}
	key, err := serve.CanonicalKey(req)
	if err != nil {
		g.front.WriteError(w, err)
		return
	}
	ctx, cancel := g.front.RequestContext(r, req.TimeoutMs)
	defer cancel()

	if r.Header.Get(serve.CacheOnlyHeader) != "" {
		// A probe stays a probe: ask only the owner, never compute.
		owner := g.shards[g.ring.Owner(key)]
		rp, ok, err := g.probe(ctx, owner, req)
		switch {
		case err != nil:
			g.front.WriteError(w, err)
		case !ok:
			g.front.WriteError(w, serve.NewError(http.StatusNotFound, "cache_miss", "result not cached", 0))
		default:
			rp.write(w, owner)
		}
		return
	}
	rp, sh, err := g.simulate(ctx, req, key)
	if err != nil {
		g.front.WriteError(w, err)
		return
	}
	rp.write(w, sh)
}

// simulate serves one simulation through the ring: the owner first, hedged
// onto the next shard when the owner is slower than the hedge delay,
// failed over along the ring when an attempt errors. A failover to a
// non-owner first probes the owner's cache: a shard whose compute path is
// broken (breaker open) still serves its cached results, and a dead one
// fails the probe fast — either way a failover shard never recomputes a
// result the cluster already holds.
func (g *Gateway) simulate(ctx context.Context, req serve.SimulateRequest, key string) (reply, *shard, error) {
	return route(g, ctx, key, policy[reply]{
		span:  "gw.attempt",
		hedge: true,
		probe: func(ctx context.Context, owner *shard) (reply, bool) {
			ctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			rp, ok, _ := g.probe(ctx, owner, req)
			return rp, ok
		},
	}, func(ctx context.Context, sh *shard) (reply, error) {
		t0 := time.Now()
		body, outcome, err := sh.client.SimulateRaw(ctx, req)
		if err != nil {
			return reply{}, err
		}
		g.proxyDur.ObserveSince(t0)
		return reply{body: body, outcome: outcome}, nil
	})
}

// probe asks owner for req's cached result only, as a gw.probe span.
func (g *Gateway) probe(ctx context.Context, owner *shard, req serve.SimulateRequest) (reply, bool, error) {
	sp, ctx := stats.StartSpan(ctx, "gw.probe", "cluster")
	sp.SetAttr("shard", "shard-"+strconv.Itoa(owner.idx))
	body, outcome, ok, err := owner.client.CacheProbe(ctx, req)
	ok = ok && err == nil
	sp.SetAttr("hit", strconv.FormatBool(ok))
	sp.End()
	return reply{body: body, outcome: outcome}, ok, err
}

// hedgeDelay resolves the current hedge delay: fixed when configured,
// adaptive (observed p99 of proxied simulate latency, floored at
// minHedge) by default, zero = hedging off for this request.
func (g *Gateway) hedgeDelay() time.Duration {
	switch {
	case g.opts.HedgeAfter < 0:
		return 0
	case g.opts.HedgeAfter > 0:
		return g.opts.HedgeAfter
	}
	snap := g.proxyDur.Snapshot()
	if snap.Count < HedgeWarmup {
		return 0
	}
	d := time.Duration(snap.Quantile(0.99))
	if d < minHedge {
		d = minHedge
	}
	return d
}

// --- arena routing ---

// handleArena proxies a replacement-policy race to the shard owning its
// content address, failing over along the ring when a shard errors. Reports
// are byte-identical on every shard (the race is deterministic and every
// daemon pins the same single-frame geometry), so failover never changes a
// number — only which shard's arena cache warms up. No hedging: a race is
// orders of magnitude heavier than a simulate call, and doubling one
// deliberately is the wrong trade.
func (g *Gateway) handleArena(w http.ResponseWriter, r *http.Request) {
	var req serve.ArenaRequest
	body, ok := g.front.BeginSim(w, r, &req)
	if !ok {
		return
	}
	_, key, err := serve.ArenaKey(req)
	if err != nil {
		g.front.WriteError(w, err)
		return
	}
	if serve.AsyncRequested(r) {
		g.routeJobSubmit(w, r, serve.JobKindArena, body)
		return
	}
	ctx, cancel := g.front.RequestContext(r, req.TimeoutMs)
	defer cancel()
	rp, sh, err := route(g, ctx, key, policy[reply]{span: "gw.attempt"},
		func(ctx context.Context, sh *shard) (reply, error) {
			body, outcome, err := sh.client.ArenaRaw(ctx, req)
			return reply{body: body, outcome: outcome}, err
		})
	if err != nil {
		g.front.WriteError(w, err)
		return
	}
	rp.write(w, sh)
}

// --- sweep fan-out ---

func (g *Gateway) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req serve.SweepRequest
	body, ok := g.front.BeginSim(w, r, &req)
	if !ok {
		return
	}
	keys, timeoutMs, err := serve.ResolveSweep(req, g.opts.MaxSweepItems, "gateway", serve.CanonicalKey)
	if err != nil {
		g.front.WriteError(w, err)
		return
	}
	if serve.AsyncRequested(r) {
		g.routeJobSubmit(w, r, serve.JobKindSweep, body)
		return
	}
	ctx, cancel := g.front.RequestContext(r, timeoutMs)
	defer cancel()

	runs, err := g.fanOutSweep(ctx, req.Items, keys)
	if err != nil {
		g.front.WriteError(w, err)
		return
	}
	g.front.WriteJSON(w, serve.SweepResponse{Runs: runs})
}

// sweepChunk is one sub-sweep: a run of same-owner items, at most
// serve.MaxSweepItems long, remembering each item's global index.
type sweepChunk struct {
	key    string // any member's content address: they share the owner
	global []int
}

// fanOutSweep distributes items across their owning shards as sub-sweeps
// and reassembles the runs in global item order. A failed sub-sweep —
// shard death mid-sweep included — degrades to item-by-item routing with
// full failover, so a sweep only fails when an item is unservable by
// every shard (or genuinely invalid).
func (g *Gateway) fanOutSweep(ctx context.Context, items []serve.SimulateRequest, keys []string) ([]json.RawMessage, error) {
	// Group by owner, preserving item order within each owner.
	byOwner := make(map[int][]int)
	for i, key := range keys {
		o := g.ring.Owner(key)
		byOwner[o] = append(byOwner[o], i)
	}
	var chunks []sweepChunk
	for _, globals := range byOwner {
		for len(globals) > 0 {
			n := min(len(globals), serve.MaxSweepItems)
			chunks = append(chunks, sweepChunk{key: keys[globals[0]], global: globals[:n]})
			globals = globals[n:]
		}
	}

	runs := make([]json.RawMessage, len(items))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for _, ch := range chunks {
		wg.Add(1)
		go func(ch sweepChunk) {
			defer wg.Done()
			sub := make([]serve.SimulateRequest, len(ch.global))
			for i, gi := range ch.global {
				sub[i] = items[gi]
			}
			got, err := g.subSweep(ctx, ch.key, sub)
			if err == nil {
				for i, gi := range ch.global {
					runs[gi] = got[i]
				}
				return
			}
			// The sub-sweep died (shard killed mid-sweep, breaker open,
			// chaos fault). Recover item by item through the full
			// hedge/failover path.
			for i, gi := range ch.global {
				g.fallback.Inc()
				rp, _, err := g.simulate(ctx, sub[i], keys[gi])
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("item %d: %w", gi, err)
					}
					mu.Unlock()
					return
				}
				// Simulate bodies end in the canonical newline; runs
				// embed without it, exactly as the shard's own sweep
				// handler trims.
				runs[gi] = json.RawMessage(string(rp.body[:len(rp.body)-1]))
			}
		}(ch)
	}
	wg.Wait()
	if firstErr != nil {
		// The wrap keeps a shard's own rejection rendering unchanged.
		return nil, fmt.Errorf("cluster: sweep failed: %w", firstErr)
	}
	return runs, nil
}

// subSweep sends one sub-sweep to its owner alone, as a gw.subsweep span
// carrying the chunk size — the span whose traceparent the shard's own
// sweep spans stitch under. It never walks the ring: a failed sub-sweep
// falls back item by item instead.
func (g *Gateway) subSweep(ctx context.Context, key string, items []serve.SimulateRequest) ([]json.RawMessage, error) {
	got, _, err := route(g, ctx, key, policy[[]json.RawMessage]{span: "gw.subsweep", ownerOnly: true},
		func(ctx context.Context, sh *shard) ([]json.RawMessage, error) {
			stats.SpanFrom(ctx).SetAttr("items", strconv.Itoa(len(items)))
			runs, err := sh.client.SweepRaw(ctx, serve.SweepRequest{Items: items})
			if err == nil && len(runs) != len(items) {
				err = fmt.Errorf("cluster: shard %s returned %d runs for %d items",
					sh.name, len(runs), len(items))
			}
			return runs, err
		})
	return got, err
}

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tcor/internal/resilience"
	"tcor/internal/serve"
	"tcor/internal/stats"
)

// fakeCluster is a set of scripted shard servers whose behavior is
// assigned per role after the ring is known — ring placement depends on
// the servers' (random) ports, so tests pick the owner at runtime.
type fakeCluster struct {
	mu       sync.Mutex
	handlers map[string]http.HandlerFunc // by base URL
	servers  []*httptest.Server
	urls     []string
}

func newFakeCluster(t *testing.T, n int) *fakeCluster {
	t.Helper()
	fc := &fakeCluster{handlers: make(map[string]http.HandlerFunc)}
	for i := 0; i < n; i++ {
		var srv *httptest.Server
		srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fc.mu.Lock()
			h := fc.handlers[srv.URL]
			fc.mu.Unlock()
			if h == nil {
				t.Errorf("no handler assigned for %s", srv.URL)
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
			h(w, r)
		}))
		t.Cleanup(srv.Close)
		fc.servers = append(fc.servers, srv)
		fc.urls = append(fc.urls, srv.URL)
	}
	return fc
}

func (fc *fakeCluster) setRole(url string, h http.HandlerFunc) {
	fc.mu.Lock()
	fc.handlers[url] = h
	fc.mu.Unlock()
}

// answer returns a handler serving body on /v1/simulate with the given
// cache header; /v1/sweep answers each item with bodyFor(item) sans
// newline.
func answer(body string, outcome string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if outcome != "" {
			w.Header().Set("X-Tcord-Cache", outcome)
		}
		io.WriteString(w, body)
	}
}

func fail(status int, code string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(serve.ErrorBody{Error: serve.ErrorDetail{Code: code, Message: code}})
	}
}

// singleAttempt keeps router tests deterministic: no client-level retries,
// breakers that effectively never trip unless the test wants them to.
func singleAttempt() Options {
	return Options{
		Retry:   &resilience.RetryPolicy{MaxAttempts: 1},
		Breaker: &resilience.BreakerConfig{Window: 64, MinSamples: 64, Cooldown: time.Hour},
	}
}

func newTestGateway(t *testing.T, fc *fakeCluster, opts Options) (*Gateway, *httptest.Server) {
	t.Helper()
	opts.Shards = fc.urls
	g, err := NewGateway(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	return g, srv
}

var testSim = serve.SimulateRequest{Benchmark: "GTr", Config: "tcor", TileCacheKB: 64, Frames: 1}

func postSim(t *testing.T, url string, req serve.SimulateRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// ownerOf returns the shard URLs in the gateway's try order for req.
func ownerOf(t *testing.T, g *Gateway, req serve.SimulateRequest) []string {
	t.Helper()
	key, err := serve.CanonicalKey(req)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, n := range g.Ring().Successors(key) {
		order = append(order, g.shards[n].name)
	}
	return order
}

// TestGatewayRoutesToOwner: every request lands on the shard the ring
// assigns its content address, and the response names it.
func TestGatewayRoutesToOwner(t *testing.T) {
	fc := newFakeCluster(t, 3)
	for _, u := range fc.urls {
		fc.setRole(u, answer(fmt.Sprintf("{\"from\":%q}\n", u), "miss"))
	}
	g, srv := newTestGateway(t, fc, singleAttempt())

	for kb := 32; kb <= 512; kb *= 2 {
		req := testSim
		req.TileCacheKB = kb
		want := ownerOf(t, g, req)[0]
		resp := postSim(t, srv.URL, req)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("kb=%d: status %d: %s", kb, resp.StatusCode, body)
		}
		if got := resp.Header.Get(serve.ShardHeader); got != want {
			t.Fatalf("kb=%d served by %s, ring owner is %s", kb, got, want)
		}
		if !strings.Contains(body, want) {
			t.Fatalf("kb=%d body %q did not come from owner %s", kb, body, want)
		}
	}
}

// TestGatewayHedgesSlowOwner: a fixed hedge delay fires a second copy of
// the request at the next shard on the ring, and the fast answer wins.
func TestGatewayHedgesSlowOwner(t *testing.T) {
	fc := newFakeCluster(t, 2)
	opts := singleAttempt()
	opts.HedgeAfter = 20 * time.Millisecond
	g, srv := newTestGateway(t, fc, opts)

	order := ownerOf(t, g, testSim)
	fc.setRole(order[0], func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(400 * time.Millisecond)
		answer("{\"from\":\"slow\"}\n", "miss")(w, r)
	})
	fc.setRole(order[1], answer("{\"from\":\"fast\"}\n", "hit"))

	resp := postSim(t, srv.URL, testSim)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "fast") {
		t.Fatalf("hedged request got %d %q, want the fast shard's answer", resp.StatusCode, body)
	}
	if got := resp.Header.Get(serve.ShardHeader); got != order[1] {
		t.Fatalf("served by %s, want the hedge target %s", got, order[1])
	}
	snap := g.Registry().Snapshot()
	if snap.Get("gw.hedges") != 1 || snap.Get("gw.hedge.wins") != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1", snap.Get("gw.hedges"), snap.Get("gw.hedge.wins"))
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGatewayFailoverProbesOwnerCache: when the owner's compute path
// fails but its cache still answers probes (the breaker-open regime), a
// failover serves the owner's cached bytes instead of recomputing on
// another shard.
func TestGatewayFailoverProbesOwnerCache(t *testing.T) {
	fc := newFakeCluster(t, 2)
	g, srv := newTestGateway(t, fc, singleAttempt())

	order := ownerOf(t, g, testSim)
	fc.setRole(order[0], func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(serve.CacheOnlyHeader) != "" {
			w.Header().Set("X-Tcord-Cache", "hit")
			io.WriteString(w, "{\"from\":\"owner-cache\"}\n")
			return
		}
		fail(http.StatusServiceUnavailable, "breaker_open")(w, r)
	})
	fc.setRole(order[1], answer("{\"from\":\"recomputed\"}\n", "miss"))

	resp := postSim(t, srv.URL, testSim)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "owner-cache") {
		t.Fatalf("failover got %d %q, want the owner's cached value", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Tcord-Cache"); got != "hit" {
		t.Fatalf("X-Tcord-Cache = %q, want hit", got)
	}
	if got := resp.Header.Get(serve.ShardHeader); got != order[0] {
		t.Fatalf("served by %s, want the owner %s (via cache probe)", got, order[0])
	}
	snap := g.Registry().Snapshot()
	if snap.Get("gw.failovers") != 1 || snap.Get("gw.probe.hits") != 1 {
		t.Fatalf("failovers=%d probeHits=%d, want 1/1", snap.Get("gw.failovers"), snap.Get("gw.probe.hits"))
	}
}

// TestGatewayFailoverComputesOnMiss: with the owner fully broken (probe
// included), the next shard on the ring computes the result.
func TestGatewayFailoverComputesOnMiss(t *testing.T) {
	fc := newFakeCluster(t, 2)
	g, srv := newTestGateway(t, fc, singleAttempt())

	order := ownerOf(t, g, testSim)
	fc.setRole(order[0], fail(http.StatusInternalServerError, "internal"))
	fc.setRole(order[1], answer("{\"from\":\"recomputed\"}\n", "miss"))

	resp := postSim(t, srv.URL, testSim)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "recomputed") {
		t.Fatalf("failover got %d %q, want the successor's computation", resp.StatusCode, body)
	}
	if got := resp.Header.Get(serve.ShardHeader); got != order[1] {
		t.Fatalf("served by %s, want the successor %s", got, order[1])
	}
	snap := g.Registry().Snapshot()
	if snap.Get("gw.probe.hits") != 0 {
		t.Fatalf("probeHits=%d, want 0: the owner had nothing cached", snap.Get("gw.probe.hits"))
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGatewayBreakerRoutesAroundDeadShard: repeated failures open the
// dead shard's breaker and traffic stops knocking on its door, while
// every caller keeps getting answers.
func TestGatewayBreakerRoutesAroundDeadShard(t *testing.T) {
	fc := newFakeCluster(t, 2)
	opts := singleAttempt()
	opts.Breaker = &resilience.BreakerConfig{Window: 4, MinSamples: 2, FailureRatio: 0.5, Cooldown: time.Hour}
	g, srv := newTestGateway(t, fc, opts)

	order := ownerOf(t, g, testSim)
	for _, u := range fc.urls {
		fc.setRole(u, answer(fmt.Sprintf("{\"from\":%q}\n", u), "miss"))
	}
	// Kill the owner outright: connection-refused from here on.
	for _, s := range fc.servers {
		if s.URL == order[0] {
			s.CloseClientConnections()
			s.Close()
		}
	}
	for i := 0; i < 5; i++ {
		resp := postSim(t, srv.URL, testSim)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d %q — a dead shard must be invisible to callers", i, resp.StatusCode, body)
		}
	}
	// The breaker tripped: later requests route straight to the healthy
	// shard, so failovers stop growing.
	resp, err := http.Get(srv.URL + "/v1/ring")
	if err != nil {
		t.Fatal(err)
	}
	var info RingInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, sh := range info.Shards {
		if sh.Name == order[0] && sh.Breaker != "open" {
			t.Fatalf("dead shard's breaker is %q after 5 failures, want open", sh.Breaker)
		}
	}
	before := g.Registry().Snapshot().Get("gw.failovers")
	for i := 0; i < 3; i++ {
		resp := postSim(t, srv.URL, testSim)
		readBody(t, resp)
	}
	if after := g.Registry().Snapshot().Get("gw.failovers"); after != before {
		t.Fatalf("failovers grew %d -> %d with the breaker open; the dead shard is still being tried", before, after)
	}
}

// TestGatewayChaosProxyAbsorbed: faults injected at resilience.SiteProxy
// (aborting upstream attempts inside the gateway) are fully absorbed by
// failover — callers never see one.
func TestGatewayChaosProxyAbsorbed(t *testing.T) {
	fc := newFakeCluster(t, 3)
	for _, u := range fc.urls {
		fc.setRole(u, answer(fmt.Sprintf("{\"from\":%q}\n", u), "miss"))
	}
	reg := stats.NewRegistry()
	inj := resilience.NewInjector(42).Meter(reg)
	inj.Arm(resilience.SiteProxy, resilience.FaultPlan{Rate: 0.5})
	opts := singleAttempt()
	opts.Registry = reg
	opts.Chaos = inj
	_, srv := newTestGateway(t, fc, opts)

	for i := 0; i < 40; i++ {
		req := testSim
		req.TileCacheKB = 17 + i
		resp := postSim(t, srv.URL, req)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d %q under SiteProxy chaos", i, resp.StatusCode, body)
		}
	}
	if got := reg.Snapshot().Get("chaos.gw.proxy.injected"); got == 0 {
		t.Fatal("the injector never fired; the chaos plan is not exercising the proxy path")
	}
}

// TestGatewaySweepFallsBackItemByItem: a shard whose sweep endpoint is
// broken degrades to per-item routing; the merged response still carries
// every run in order.
func TestGatewaySweepFallsBackItemByItem(t *testing.T) {
	fc := newFakeCluster(t, 2)
	g, srv := newTestGateway(t, fc, singleAttempt())

	items := make([]serve.SimulateRequest, 6)
	for i := range items {
		items[i] = testSim
		items[i].TileCacheKB = 32 << i
	}
	// Both shards answer simulate with their identity; one shard's sweep
	// endpoint is broken.
	broken := fc.urls[0]
	for _, u := range fc.urls {
		u := u
		fc.setRole(u, func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sweep" {
				if u == broken {
					fail(http.StatusInternalServerError, "internal")(w, r)
					return
				}
				var req serve.SweepRequest
				json.NewDecoder(r.Body).Decode(&req)
				runs := make([]json.RawMessage, len(req.Items))
				for i, it := range req.Items {
					runs[i] = json.RawMessage(fmt.Sprintf("{\"kb\":%d,\"via\":\"sweep\"}", it.TileCacheKB))
				}
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode(serve.SweepResponse{Runs: runs})
				return
			}
			var req serve.SimulateRequest
			json.NewDecoder(r.Body).Decode(&req)
			fmt.Fprintf(w, "{\"kb\":%d,\"via\":\"simulate\"}\n", req.TileCacheKB)
		})
	}

	body, err := json.Marshal(serve.SweepRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, raw)
	}
	var sr struct {
		Runs []struct {
			KB  int    `json:"kb"`
			Via string `json:"via"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(raw), &sr); err != nil {
		t.Fatalf("decoding sweep response: %v\n%s", err, raw)
	}
	if len(sr.Runs) != len(items) {
		t.Fatalf("sweep returned %d runs, want %d", len(sr.Runs), len(items))
	}
	brokenOwned := 0
	for i, run := range sr.Runs {
		if run.KB != items[i].TileCacheKB {
			t.Fatalf("run %d is kb=%d, want item order preserved (kb=%d)", i, run.KB, items[i].TileCacheKB)
		}
		key, err := serve.CanonicalKey(items[i])
		if err != nil {
			t.Fatal(err)
		}
		owner := g.shards[g.Ring().Owner(key)].name
		if owner == broken {
			brokenOwned++
			if run.Via != "simulate" {
				t.Fatalf("run %d owned by the broken shard came via %q, want the per-item fallback", i, run.Via)
			}
		}
	}
	if got := g.Registry().Snapshot().Get("gw.sweep.fallbackItems"); got != int64(brokenOwned) {
		t.Fatalf("gw.sweep.fallbackItems = %d, want %d", got, brokenOwned)
	}
}

// TestGatewayDrain: a draining gateway refuses new simulations like a
// draining shard does.
func TestGatewayDrain(t *testing.T) {
	fc := newFakeCluster(t, 1)
	fc.setRole(fc.urls[0], answer("{}\n", "miss"))
	g, srv := newTestGateway(t, fc, singleAttempt())
	if err := g.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The httptest server wraps the same handler, still reachable.
	resp := postSim(t, srv.URL, testSim)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining gateway answered %d %q, want 503 draining", resp.StatusCode, body)
	}
}

// postArena drives one /v1/arena request through the gateway.
func postArena(t *testing.T, url string, req serve.ArenaRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/arena", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

var testArena = serve.ArenaRequest{Policies: []string{"LRU", "OPT"}, Benchmarks: []string{"CCS"}, SizeKB: 16}

// arenaOrderOf returns the shard URLs in the gateway's try order for req.
func arenaOrderOf(t *testing.T, g *Gateway, req serve.ArenaRequest) []string {
	t.Helper()
	_, key, err := serve.ArenaKey(req)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, n := range g.Ring().Successors(key) {
		order = append(order, g.shards[n].name)
	}
	return order
}

// TestGatewayArenaRoutesToOwner: a race lands on the shard owning its
// content address, the cache disposition and shard name pass through, and
// a repeat hits the same owner's cache.
func TestGatewayArenaRoutesToOwner(t *testing.T) {
	fc := newFakeCluster(t, 3)
	for _, u := range fc.urls {
		fc.setRole(u, answer(fmt.Sprintf("{\"from\":%q}\n", u), "miss"))
	}
	g, srv := newTestGateway(t, fc, singleAttempt())

	want := arenaOrderOf(t, g, testArena)[0]
	resp := postArena(t, srv.URL, testArena)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(serve.ShardHeader); got != want {
		t.Fatalf("served by %s, ring owner is %s", got, want)
	}
	if got := resp.Header.Get("X-Tcord-Cache"); got != "miss" {
		t.Fatalf("X-Tcord-Cache = %q, want the shard's disposition", got)
	}
	if !strings.Contains(body, want) {
		t.Fatalf("body %q did not come from owner %s", body, want)
	}
}

// TestGatewayArenaFailsOver: a broken owner's race fails over along the
// ring; a 4xx from the owner, by contrast, passes straight through — every
// shard would reject the same request the same way.
func TestGatewayArenaFailsOver(t *testing.T) {
	fc := newFakeCluster(t, 2)
	g, srv := newTestGateway(t, fc, singleAttempt())

	order := arenaOrderOf(t, g, testArena)
	fc.setRole(order[0], fail(http.StatusInternalServerError, "internal"))
	fc.setRole(order[1], answer("{\"from\":\"successor\"}\n", "miss"))

	resp := postArena(t, srv.URL, testArena)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "successor") {
		t.Fatalf("failover got %d %q, want the successor's race", resp.StatusCode, body)
	}
	if got := resp.Header.Get(serve.ShardHeader); got != order[1] {
		t.Fatalf("served by %s, want the successor %s", got, order[1])
	}

	fc.setRole(order[0], fail(http.StatusBadRequest, "invalid_request"))
	resp = postArena(t, srv.URL, testArena)
	readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("owner 400 answered %d at the gateway, want pass-through", resp.StatusCode)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

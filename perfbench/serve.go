package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"tcor/internal/geom"
	"tcor/internal/serve"
	"tcor/internal/stats"
	"tcor/internal/workload"
)

// Fixed rates and latency limits, confirmed on a 2-CPU box (README.md).
const (
	coldPerSec  = 3.0    // serve-cold requests per measured second, back to back on one connection
	coldLimitMs = 1500.0 // serve-cold ladder latency limit at p90
	coldLimitPM = 900

	hitRate    = 300.0 // gateway-hot hit-class requests per second
	missRate   = 1.0   // gateway-hot miss-class requests per second
	hedgeAfter = -1    // gateway hedge delay (negative = off)
	hitLimitMs = 20.0  // gateway-hot hit latency limit at p99
	hitLimitPM = 990

	// oracleSamples is how many served bodies per phase are compared with
	// a direct simulation.
	oracleSamples = 6
)

// Goodput ladders (requests per second of the class the limit is on).
var (
	coldLadder = []float64{2, 4, 6, 8, 10, 12}
	hitLadder  = []float64{300, 600, 1200, 2400}
)

// conns is the client connection budget: one per CPU.
func conns() int { return runtime.NumCPU() }

// shapeCheck verifies a cold body decodes and describes the requested
// key; a full byte comparison runs on the sampled bodies afterwards.
func shapeCheck(k simKey, body []byte) bool {
	var rr serve.RunResult
	if err := json.Unmarshal(body, &rr); err != nil {
		return false
	}
	return rr.Benchmark == k.Alias && rr.Config == k.Config && rr.TileCacheKB == k.KB && rr.Frames == k.frames()
}

// sampled picks the requests of a class whose bodies the reference oracle
// checks: the first oracleSamples/3 of each configuration, so every
// configuration's path is compared.
func sampled(reqs []request, class string) map[int]bool {
	out := map[int]bool{}
	per := map[string]int{}
	for i, q := range reqs {
		if q.Class == class && per[q.Key.Config] < oracleSamples/len(configNames) {
			per[q.Key.Config]++
			out[i] = true
		}
	}
	return out
}

// reference computes the body the daemon must serve for a key from a
// direct library call: workload.Generate, gpu.Simulate, then the wire
// encoding. Traced runs time each call as the workload and gpu layers.
func (r *run) reference(k simKey, parent int, acc *layerAcc) ([]byte, error) {
	spec, err := workload.ByAlias(k.Alias)
	if err != nil {
		return nil, err
	}
	if k.Frames > 0 {
		spec.Frames = k.Frames
	}
	var sc *workload.Scene
	d := r.rec.timed("workload.Generate", "workload", parent, func(int) { sc, err = workload.Generate(spec, geom.DefaultScreen()) })
	acc.generate += d
	acc.scenes++
	if err != nil {
		return nil, err
	}
	kb := k.KB
	if kb == 0 {
		kb = 64
	}
	return r.simulateCell(sc, k.Alias, k.Config, kb, parent, acc)
}

// checkReferences compares each kept body with its direct-simulation
// reference, off the timed phase, and marks mismatches Wrong.
func (r *run) checkReferences(p phaseResult, keep map[int]bool, acc *layerAcc) error {
	root := r.rec.begin("oracle."+p.Name, "bench", "", 0)
	defer r.rec.end(root)
	var idx []int
	for i := range keep {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		o := &p.Out[i]
		if !o.ok() {
			continue
		}
		want, err := r.reference(p.Reqs[i].Key, root, acc)
		if err != nil {
			return fmt.Errorf("reference for %s: %w", p.Reqs[i].Key, err)
		}
		if !bytes.Equal(o.Body, want) {
			o.Wrong = true
			r.mismatch(true, "%s %s: served body differs from the direct simulation", p.Name, p.Reqs[i].Key)
		}
		o.Body = nil
	}
	return nil
}

// histDelta is the count and sum (ns) a registry histogram gained between
// two snapshots.
func histDelta(before, after map[string]stats.HistogramSnapshot, name string) (int64, int64) {
	return after[name].Count - before[name].Count, after[name].Sum - before[name].Sum
}

func meanMs(n, sumNs int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sumNs) / float64(n) / 1e6
}

// serveLayers sets the serve layer's per-layer metrics for a traced phase
// from the taps on the shards and the shards' registries.
func (r *run) serveLayers(shards []*shard, before []map[string]stats.HistogramSnapshot, cbefore []stats.Snapshot) {
	var all, hits, misses []float64
	var qn, qs, sn, ss, en, es, hitsC, missC, rejected int64
	for i, s := range shards {
		all = append(all, s.tap.all()...)
		hits = append(hits, s.tap.all("hit")...)
		misses = append(misses, s.tap.all("miss")...)
		after := s.srv.Registry().Histograms()
		n, sum := histDelta(before[i], after, "serve.queue.wait")
		qn, qs = qn+n, qs+sum
		n, sum = histDelta(before[i], after, "serve.sim.duration")
		sn, ss = sn+n, ss+sum
		n, sum = histDelta(before[i], after, "serve.encode.duration")
		en, es = en+n, es+sum
		c := s.srv.Registry().Snapshot()
		hitsC += c.Get("serve.cache.hits") - cbefore[i].Get("serve.cache.hits")
		missC += c.Get("serve.cache.misses") - cbefore[i].Get("serve.cache.misses")
		rejected += c.Get("serve.rejected.queueFull") - cbefore[i].Get("serve.rejected.queueFull")
	}
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t / float64(len(xs))
	}
	r.set("serve.handler_ms", mean(all))
	r.set("serve.hit_handler_ms", mean(hits))
	r.set("serve.miss_handler_ms", mean(misses))
	r.set("serve.queue_wait_ms", meanMs(qn, qs))
	r.set("serve.sim_ms", meanMs(sn, ss))
	r.set("serve.encode_ms", meanMs(en, es))
	if len(all) > 0 {
		r.set("serve.unattributed_ms", mean(all)-float64(qs+ss+es)/1e6/float64(len(all)))
	}
	if hitsC+missC > 0 {
		r.set("serve.cache.hit_ratio", float64(hitsC)/float64(hitsC+missC))
	}
	r.set("serve.rejected_429", float64(rejected))
}

// snapshots takes the registry state of each shard before a traced phase.
func snapshots(shards []*shard) ([]map[string]stats.HistogramSnapshot, []stats.Snapshot) {
	var h []map[string]stats.HistogramSnapshot
	var c []stats.Snapshot
	for _, s := range shards {
		h = append(h, s.srv.Registry().Histograms())
		c = append(c, s.srv.Registry().Snapshot())
	}
	return h, c
}

// frameLayers sets gpu.frame.* from the simulator spans the shards'
// tracers kept (the serving layer threads its tracer into gpu.Config).
func (r *run) frameLayers(shards []*shard, since time.Time, acc *layerAcc) {
	for _, s := range shards {
		var recs []stats.SpanRecord
		for _, sp := range s.srv.Tracer().Spans() {
			if sp.Cat == "gpu" && !sp.Start.Before(since) {
				recs = append(recs, sp)
			}
		}
		frameTimes(recs, acc)
	}
}

// clientLayers sets the client, cluster and loadgen metrics of a traced
// phase from its spans and outcomes; the tail is that of the class the
// workload's latency limit is on.
func (r *run) clientLayers(p phaseResult, class string, spans []span) {
	s := summarize(p.class(class).Lat)
	r.set("loadgen.tail_ms", s.Tail)
	r.set("loadgen.tail_pct", float64(s.TailPermille)/10)
	self := selfTimes(spans)
	var overhead, gwSelf []float64
	for _, s := range spans {
		switch s.Layer {
		case "client":
			overhead = append(overhead, ms(self[s.ID]))
		case "cluster":
			gwSelf = append(gwSelf, ms(self[s.ID]))
		}
	}
	r.set("client.overhead_ms", median(overhead))
	if len(gwSelf) > 0 {
		sort.Float64s(gwSelf)
		r.set("cluster.gateway_self_ms.p50", percentile(gwSelf, 500))
		r.set("cluster.gateway_self_ms.p99", percentile(gwSelf, 990))
	}
	r.set("loadgen.lag_p99_ms", p.lagP99())
	r.set("loadgen.sent", float64(len(p.Reqs)))
	r.set("loadgen.ok", float64(len(p.Reqs)-p.failures()))
	r.set("loadgen.failed", float64(p.failures()))
	r.set("loadgen.fail_ratio", float64(p.failures())/float64(len(p.Reqs)))
}

// spansSince returns the recorded spans that started at or after t.
func (r *run) spansSince(t time.Time) []span {
	var out []span
	off := t.Sub(r.rec.epoch)
	for _, s := range r.rec.closed() {
		if s.Start >= off {
			out = append(out, s)
		}
	}
	return out
}

// ---- serve-cold ----

// coldPhase builds a fixed-rate phase of distinct cold keys: a goodput-ladder
// step.
func coldPhase(name string, seed int64, keys []simKey, rate float64) phase {
	return phase{Name: name, Reqs: stream("cold", name, seed, keys, schedule(len(keys), rate, nil)),
		Pools: map[string]int{"cold": conns()}}
}

// closedColdPhase sends distinct cold keys back to back on one
// connection, so each request's latency is its service time alone.
func closedColdPhase(name string, seed int64, keys []simKey) phase {
	return phase{Name: name, Reqs: stream("cold", name, seed, keys, make([]time.Duration, len(keys))),
		Pools: map[string]int{"cold": 1}, Closed: true}
}

// coldCheck is serve-cold's inline oracle: every body must describe its
// key; sampled bodies are kept for the reference comparison.
func coldCheck(p *phase, keep map[int]bool) {
	p.Check = func(i int, o *outcome) {
		if o.Err == nil && o.Status == http.StatusOK && !shapeCheck(p.Reqs[i].Key, o.Body) {
			o.Wrong = true
		}
		if !keep[i] {
			o.Body = nil
		}
	}
}

// serveCold drives one daemon with a closed loop of distinct keys: every
// request misses the result cache and simulates. The loop is closed, one
// request at a time, because on a shared 2-CPU host open-loop arrivals
// overlap or leave the daemon idle in ways that set the median more than
// the program does (README.md); the open-loop capacity is the traced
// run's goodput ladder.
func (r *run) serveCold() error {
	ctx := context.Background()
	n := int(coldPerSec * r.seconds)
	keys, err := coldKeys(r.seed, n)
	if err != nil {
		return err
	}
	client := newClient(conns())
	var sh *shard
	setup, err := timeSetup(7, func(last bool) error {
		s, err := startShard("shard-0", r.rec)
		if err != nil {
			return err
		}
		if err := warmShard(ctx, client, s.l.url); err != nil {
			s.stop(ctx)
			return err
		}
		if last {
			sh = s
			return nil
		}
		return s.stop(ctx)
	})
	if err != nil {
		return fmt.Errorf("serve-cold setup: %w", err)
	}
	defer func() { sh.stop(ctx) }()

	acc := newLayerAcc()
	p := closedColdPhase("closed", r.seed, keys)
	keep := sampled(p.Reqs, "cold")
	coldCheck(&p, keep)
	g := &loadgen{client: client, url: sh.l.url}

	if !r.traced {
		u0 := sampleUsage()
		res := g.run(ctx, p)
		u1 := sampleUsage()
		rss, err := retainedRSSMB()
		if err != nil {
			return err
		}
		if err := res.checkLag(); err != nil {
			return err
		}
		if err := r.checkReferences(res, keep, acc); err != nil {
			return err
		}
		r.count(res, true)
		s := summarize(res.class("cold").Lat)
		r.set("setup_s", setup)
		r.set("p50_ms", s.P50)
		r.set("cpu_ms_per_op", ms(u1.cpu-u0.cpu)/float64(len(res.Reqs)))
		r.set("rss_mb", rss)
		fmt.Fprintf(os.Stderr, "serve-cold: %d requests back to back, p50 %.1f ms, p%.1f %.1f ms\n", s.N, s.P50, float64(s.TailPermille)/10, s.Tail)
		return nil
	}

	// Traced: the same phase untraced, then traced on a fresh daemon (an
	// empty cache, so the keys are cold again), then the goodput ladder.
	res := g.run(ctx, p)
	if err := res.checkLag(); err != nil {
		return err
	}
	if err := r.checkReferences(res, keep, acc); err != nil {
		return err
	}
	r.count(res, true)
	untracedP50 := median(res.class("cold").Lat)
	sh.stop(ctx)
	if sh, err = startShard("shard-0", r.rec); err != nil {
		return err
	}
	if err := warmShard(ctx, client, sh.l.url); err != nil {
		return err
	}
	sh.tap.set(true)
	g = &loadgen{client: client, url: sh.l.url, rec: r.rec}
	hb, cb := snapshots([]*shard{sh})
	t0 := time.Now()
	u0 := sampleUsage()
	p = closedColdPhase("closed.traced", r.seed, keys)
	coldCheck(&p, keep)
	tres := g.run(ctx, p)
	gcs, pause := gcSince(u0)
	spans := r.spansSince(t0)
	r.serveLayers([]*shard{sh}, hb, cb)
	r.frameLayers([]*shard{sh}, t0, acc)
	r.clientLayers(tres, "cold", spans)
	if err := r.checkReferences(tres, keep, acc); err != nil {
		return err
	}
	r.count(tres, true)
	r.set("go.gc_cycles", float64(gcs))
	r.set("go.gc_pause_p99_ms", pause)
	r.set("trace.overhead_share", (median(tres.class("cold").Lat)-untracedP50)/untracedP50)
	r.setLayerAcc(acc)

	var steps []ladderStep
	for si, rate := range coldLadder {
		step, err := r.coldStep(ctx, client, si, rate)
		if err != nil {
			return err
		}
		steps = append(steps, step)
		if !step.meets(coldLimitMs) {
			break
		}
	}
	r.set("loadgen.goodput_rps", goodput(steps, coldLimitMs))
	return nil
}

// ladderSeconds is the length of one goodput-ladder step.
func (r *run) ladderSeconds() float64 { return max(4, r.seconds/6) }

// coldStep runs one ladder step on a fresh daemon.
func (r *run) coldStep(ctx context.Context, client *http.Client, si int, rate float64) (ladderStep, error) {
	n := max(1, int(rate*r.ladderSeconds()))
	keys, err := coldKeys(r.seed+int64(si)+1, min(n, 240))
	if err != nil {
		return ladderStep{}, err
	}
	sh, err := startShard("ladder", nil)
	if err != nil {
		return ladderStep{}, err
	}
	defer sh.stop(ctx)
	if err := warmShard(ctx, client, sh.l.url); err != nil {
		return ladderStep{}, err
	}
	p := coldPhase(fmt.Sprintf("ladder.%g", rate), r.seed, keys, rate)
	coldCheck(&p, nil)
	res := (&loadgen{client: client, url: sh.l.url}).run(ctx, p)
	r.count(res, false)
	c := res.class("cold")
	return ladderStep{Rate: rate, Attempted: c.Sent, Failed: c.Fail,
		Limit: limitLatency(c.Lat, c.Fail, coldLimitPM), Growing: res.growing()}, nil
}

// probe checks that a front door answers /healthz.
func probe(ctx context.Context, client *http.Client, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for keep-alive
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/healthz answered %d", url, resp.StatusCode)
	}
	return nil
}

// warmKey is serve-cold's set-up request: outside the measured grid (no
// grid key is 48 KiB), so every measured key stays cold.
var warmKey = simKey{Alias: "GTr", Config: "tcor", KB: 48, Frames: 1}

// warmShard checks a fresh daemon answers, then serves one simulation
// through it, so the first measured request does not pay the daemon's
// first-use costs.
func warmShard(ctx context.Context, client *http.Client, url string) error {
	if err := probe(ctx, client, url); err != nil {
		return err
	}
	body, status, err := postSimulate(ctx, client, url, warmKey)
	if err != nil {
		return err
	}
	if status != http.StatusOK || !shapeCheck(warmKey, body) {
		return fmt.Errorf("warm-up request answered %d", status)
	}
	return nil
}

// postSimulate sends one /v1/simulate request and returns the body and
// status.
func postSimulate(ctx context.Context, client *http.Client, url string, k simKey) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/simulate", bytes.NewReader(k.body()))
	if err != nil {
		return nil, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// ---- gateway-hot ----

// hotPhase builds a phase of Zipf hits (independent arrivals) beside a
// fixed-rate stream of fresh miss keys.
func hotPhase(name string, seed int64, hitRate, seconds float64, misses []simKey) phase {
	nh := int(hitRate * seconds)
	hits := stream("hit", name, seed, hitDraws(seed, nh), schedule(nh, hitRate, rand.New(rand.NewSource(seed))))
	due := schedule(len(misses), missRate, nil)
	for i := range due {
		due[i] += time.Duration(float64(time.Second) / missRate / 2) // half a gap in, not at t=0 with the first hit
	}
	miss := stream("miss", name, seed, misses, due)
	hitConns := max(1, conns()-1)
	return phase{Name: name, Reqs: merge(hits, miss), Pools: map[string]int{"hit": hitConns, "miss": 1}}
}

// hotCheck is gateway-hot's inline oracle: a hit must equal the body
// recorded at warm-up; a miss must describe its key and sampled misses
// keep their bodies for the reference and shard comparisons.
func hotCheck(p *phase, warm map[simKey][]byte, keep map[int]bool) {
	p.Check = func(i int, o *outcome) {
		q := p.Reqs[i]
		if o.Err == nil && o.Status == http.StatusOK {
			switch q.Class {
			case "hit":
				if !bytes.Equal(o.Body, warm[q.Key]) {
					o.Wrong = true
				}
			case "miss":
				if !shapeCheck(q.Key, o.Body) {
					o.Wrong = true
				}
			}
		}
		if !keep[i] {
			o.Body = nil
		}
	}
}

// warmCluster sends every key of the hit grid through the gateway, closed
// loop on the client's connections, and returns each key's body.
func (r *run) warmCluster(ctx context.Context, g *loadgen) (map[simKey][]byte, phaseResult, error) {
	grid := hitGrid()
	p := phase{Name: "warm", Reqs: stream("warm", "warm", r.seed, grid, make([]time.Duration, len(grid))),
		Pools: map[string]int{"warm": conns()}}
	var mu sync.Mutex
	warm := map[simKey][]byte{}
	p.Check = func(i int, o *outcome) {
		if o.Err == nil && o.Status == http.StatusOK {
			if !shapeCheck(p.Reqs[i].Key, o.Body) {
				o.Wrong = true
			}
			mu.Lock()
			warm[p.Reqs[i].Key] = o.Body
			mu.Unlock()
		}
	}
	res := g.run(ctx, p)
	if f := res.failures(); f > 0 {
		return nil, res, fmt.Errorf("warm-up: %d of %d requests failed", f, len(grid))
	}
	return warm, res, nil
}

// shardCheck compares gateway bodies with what the key's owner shard
// serves directly, for the warm grid's first keys and the kept misses.
func (r *run) shardCheck(ctx context.Context, client *http.Client, c *gateway, p phaseResult, keep map[int]bool, warm map[simKey][]byte) error {
	check := func(k simKey, got []byte) (bool, error) {
		key, err := serve.CanonicalKey(k.request())
		if err != nil {
			return false, err
		}
		owner := c.shards[c.gw.Ring().Owner(key)]
		direct, status, err := postSimulate(ctx, client, owner.l.url, k)
		if err != nil {
			return false, err
		}
		return status == http.StatusOK && bytes.Equal(direct, got), nil
	}
	for i := range keep {
		o := &p.Out[i]
		if !o.ok() {
			continue
		}
		same, err := check(p.Reqs[i].Key, o.Body)
		if err != nil {
			return fmt.Errorf("shard check: %w", err)
		}
		if !same {
			o.Wrong = true
			r.mismatch(true, "%s %s: gateway body differs from the owner shard's", p.Name, p.Reqs[i].Key)
		}
	}
	for _, k := range hitGrid()[:oracleSamples] {
		same, err := check(k, warm[k])
		if err != nil {
			return fmt.Errorf("shard check: %w", err)
		}
		if !same {
			r.mismatch(false, "warm %s: gateway body differs from the owner shard's", k)
		}
	}
	return nil
}

// hotOracles runs the post-phase oracles of a gateway-hot phase: gateway
// bodies against the owner shard, served bodies against direct
// simulations (kept misses, and the warm bodies of a few hit keys).
func (r *run) hotOracles(ctx context.Context, client *http.Client, c *gateway, res phaseResult, keep map[int]bool, warm map[simKey][]byte, refHits []simKey, acc *layerAcc) error {
	if err := r.shardCheck(ctx, client, c, res, keep, warm); err != nil {
		return err
	}
	for _, k := range refHits {
		want, err := r.reference(k, 0, acc)
		if err != nil {
			return err
		}
		if !bytes.Equal(warm[k], want) {
			r.mismatch(false, "warm %s: served body differs from the direct simulation", k)
		}
	}
	return r.checkReferences(res, keep, acc)
}

// gatewayHot drives a 2-shard gateway with Zipf hits over the warmed
// paper grid beside a trickle of fresh misses.
func (r *run) gatewayHot() error {
	ctx := context.Background()
	nMiss := max(1, int(missRate*r.seconds))
	total := nMiss
	if r.traced {
		total = 2*nMiss + len(hitLadder)*max(1, int(missRate*r.ladderSeconds()))
	}
	misses, err := missKeys(r.seed, total)
	if err != nil {
		return err
	}
	client := newClient(conns())
	var c *gateway
	start, err := timeSetup(3, func(last bool) error {
		g, err := startGateway(2, r.rec)
		if err != nil {
			return err
		}
		if err := probe(ctx, client, g.l.url); err != nil {
			g.stop(ctx)
			return err
		}
		if last {
			c = g
			return nil
		}
		return g.stop(ctx)
	})
	if err != nil {
		return fmt.Errorf("gateway-hot setup: %w", err)
	}
	defer func() { c.stop(ctx) }()
	t1 := time.Now()
	g := &loadgen{client: client, url: c.l.url}
	warm, wres, err := r.warmCluster(ctx, g)
	if err != nil {
		return err
	}
	setup := start + time.Since(t1).Seconds()
	r.count(wres, true)
	fmt.Fprintf(os.Stderr, "gateway-hot: cluster up in %.3f s (median of 3), warmed in %.2f s\n", start, time.Since(t1).Seconds())

	acc := newLayerAcc()
	refHits := []simKey{hitGrid()[0], hitGrid()[len(hitGrid())-1]}
	p := hotPhase("fixed", r.seed, hitRate, r.seconds, misses[:nMiss])
	keep := sampled(p.Reqs, "miss")
	hotCheck(&p, warm, keep)

	if !r.traced {
		u0 := sampleUsage()
		res := g.run(ctx, p)
		u1 := sampleUsage()
		rss, err := retainedRSSMB()
		if err != nil {
			return err
		}
		if err := res.checkLag(); err != nil {
			return err
		}
		if err := r.hotOracles(ctx, client, c, res, keep, warm, refHits, acc); err != nil {
			return err
		}
		r.count(res, true)
		s := summarize(res.class("hit").Lat)
		r.set("setup_s", setup)
		r.set("p50_ms", s.P50)
		r.set("cpu_ms_per_op", ms(u1.cpu-u0.cpu)/float64(len(res.Reqs)))
		r.set("rss_mb", rss)
		fmt.Fprintf(os.Stderr, "gateway-hot: %d hits at %.0f/s, p50 %.3f ms, p%.1f %.3f ms; %d misses, p50 %.1f ms\n",
			s.N, hitRate, s.P50, float64(s.TailPermille)/10, s.Tail, res.class("miss").Sent, median(res.class("miss").Lat))
		return nil
	}

	// Traced: the phase untraced, then again (fresh misses) with the taps
	// on, then the goodput ladder over the hit rate.
	res := g.run(ctx, p)
	if err := res.checkLag(); err != nil {
		return err
	}
	if err := r.hotOracles(ctx, client, c, res, keep, warm, refHits, acc); err != nil {
		return err
	}
	r.count(res, true)
	untracedP50 := median(res.class("hit").Lat)

	for _, s := range c.shards {
		s.tap.set(true)
	}
	c.tap.set(true)
	hb, cb := snapshots(c.shards)
	gw0 := c.gw.Registry().Snapshot()
	tStart := time.Now()
	u0 := sampleUsage()
	p = hotPhase("fixed.traced", r.seed+1, hitRate, r.seconds, misses[nMiss:2*nMiss])
	keep = sampled(p.Reqs, "miss")
	hotCheck(&p, warm, keep)
	tres := (&loadgen{client: client, url: c.l.url, rec: r.rec}).run(ctx, p)
	gcs, pause := gcSince(u0)
	for _, s := range c.shards {
		s.tap.on.Store(false)
	}
	c.tap.on.Store(false)
	spans := r.spansSince(tStart)
	r.serveLayers(c.shards, hb, cb)
	r.frameLayers(c.shards, tStart, acc)
	r.clientLayers(tres, "hit", spans)
	gw1 := c.gw.Registry().Snapshot()
	d := func(name string) float64 { return float64(gw1.Get(name) - gw0.Get(name)) }
	r.set("cluster.failovers", d("gw.failovers"))
	var busiest, sum float64
	for _, s := range c.shards {
		n := float64(s.tap.count())
		busiest, sum = max(busiest, n), sum+n
	}
	if sum > 0 {
		r.set("cluster.shard_skew", busiest/(sum/float64(len(c.shards))))
	}
	if err := r.hotOracles(ctx, client, c, tres, keep, warm, nil, acc); err != nil {
		return err
	}
	r.count(tres, true)
	r.set("loadgen.miss_p50_ms", median(tres.class("miss").Lat))
	r.set("go.gc_cycles", float64(gcs))
	r.set("go.gc_pause_p99_ms", pause)
	r.set("trace.overhead_share", (median(tres.class("hit").Lat)-untracedP50)/untracedP50)
	r.setLayerAcc(acc)

	var steps []ladderStep
	next := 2 * nMiss
	for si, rate := range hitLadder {
		nm := max(1, int(missRate*r.ladderSeconds()))
		p := hotPhase(fmt.Sprintf("ladder.%g", rate), r.seed+int64(si)+2, rate, r.ladderSeconds(), misses[next:next+nm])
		next += nm
		hotCheck(&p, warm, nil)
		res := (&loadgen{client: client, url: c.l.url}).run(ctx, p)
		r.count(res, false)
		h := res.class("hit")
		step := ladderStep{Rate: rate, Attempted: h.Sent, Failed: h.Fail,
			Limit: limitLatency(h.Lat, h.Fail, hitLimitPM), Growing: res.growing()}
		steps = append(steps, step)
		if !step.meets(hitLimitMs) {
			break
		}
	}
	r.set("loadgen.goodput_rps", goodput(steps, hitLimitMs))
	return nil
}

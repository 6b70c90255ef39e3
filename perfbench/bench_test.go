package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		wantPM int
		wantOK bool
	}{
		{0, 0, false},
		{9, 0, false},
		{99, 0, false}, // p90 would leave 9 beyond
		{100, 900, true},
		{999, 900, true}, // p99 would leave 9 beyond
		{1000, 990, true},
		{9999, 990, true},
		{10000, 999, true},
	}
	for _, c := range cases {
		pm, ok := tailPercentile(c.n)
		if pm != c.wantPM || ok != c.wantOK {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, pm, ok, c.wantPM, c.wantOK)
		}
		if ok && c.n-rankOf(c.n, pm) < minBeyond {
			t.Errorf("n=%d p%d leaves %d beyond", c.n, pm, c.n-rankOf(c.n, pm))
		}
	}
}

func TestSummarizeReportsCountAndFallsBackToSlowest(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	s := summarize(xs)
	if s.N != 100 || s.P50 != 50 || s.TailPermille != 900 || s.Tail != 90 {
		t.Errorf("summarize(1..100) = %+v; want N 100, p50 50, p90 90", s)
	}
	s = summarize([]float64{3, 9, 4})
	if s.N != 3 || s.P50 != 4 || s.TailPermille != 1000 || s.Tail != 9 {
		t.Errorf("summarize(3,9,4) = %+v; want p50 4 and the slowest, 9", s)
	}
}

// arrivals builds a phase where request i is due at i*gap and finishes
// after service(i).
func arrivals(n int, gap time.Duration, service func(i int) time.Duration) (due, done []time.Duration) {
	for i := 0; i < n; i++ {
		due = append(due, time.Duration(i)*gap)
		if s := service(i); s == never {
			done = append(done, never)
		} else {
			done = append(done, time.Duration(i)*gap+s)
		}
	}
	return due, done
}

func TestBacklogGrowing(t *testing.T) {
	phase := 10 * time.Second
	due, done := arrivals(100, 100*time.Millisecond, func(int) time.Duration { return 30 * time.Millisecond })
	if backlogGrowing(due, done, phase, 2) {
		t.Error("a server finishing each request before the next arrives has no growing backlog")
	}
	// One server at 150 ms per request, arrivals every 100 ms: the queue
	// grows by a third of a request per arrival.
	var free time.Duration
	due, done = nil, nil
	for i := 0; i < 100; i++ {
		d := time.Duration(i) * 100 * time.Millisecond
		start := max(d, free)
		free = start + 150*time.Millisecond
		due, done = append(due, d), append(done, free)
	}
	if !backlogGrowing(due, done, phase, 2) {
		t.Error("an overloaded server's backlog must count as growing")
	}
	// A burst in the first quarter that drains by the end is not a trend.
	due, done = arrivals(100, 100*time.Millisecond, func(i int) time.Duration {
		if i < 25 {
			return time.Duration(25-i) * 100 * time.Millisecond
		}
		return 30 * time.Millisecond
	})
	if backlogGrowing(due, done, phase, 2) {
		t.Error("a drained burst must not count as growing")
	}
	// Requests that never finish keep the backlog growing.
	due, done = arrivals(100, 100*time.Millisecond, func(i int) time.Duration {
		if i%10 == 9 {
			return never
		}
		return 30 * time.Millisecond
	})
	if !backlogGrowing(due, done, phase, 2) {
		t.Error("unfinished requests must count as backlog")
	}
}

func TestGoodputLadder(t *testing.T) {
	steps := []ladderStep{
		{Rate: 2, Attempted: 100, Limit: 400},
		{Rate: 3, Attempted: 100, Limit: 900},
		{Rate: 4, Attempted: 100, Limit: 1400},
		{Rate: 5, Attempted: 100, Limit: 1700},
		{Rate: 6, Attempted: 100, Limit: 1200}, // above a failed step: ignored
	}
	if g := goodput(steps, 1500); g != 4 {
		t.Errorf("goodput = %v; want 4", g)
	}
	steps[1].Growing = true
	if g := goodput(steps, 1500); g != 2 {
		t.Errorf("goodput with a growing backlog at 3/s = %v; want 2", g)
	}
	if g := goodput([]ladderStep{{Rate: 2, Attempted: 10, Limit: 2000}}, 1500); g != 0 {
		t.Errorf("goodput when the first step misses = %v; want 0", g)
	}
	if g := goodput([]ladderStep{{Rate: 2}}, 1500); g != 0 {
		t.Errorf("a step with no requests cannot meet a limit; goodput = %v", g)
	}
}

func TestLimitLatencyCountsFailuresAsMisses(t *testing.T) {
	lat := make([]float64, 95)
	for i := range lat {
		lat[i] = 10
	}
	if got := limitLatency(lat, 5, 900); got != 10 {
		t.Errorf("5%% failures under p90: got %v; want 10", got)
	}
	if got := limitLatency(lat, 15, 900); got < 1e300 {
		t.Errorf("15%% failures must push p90 past any limit; got %v", got)
	}
}

func TestColdKeysDeterministicUniqueAndStratified(t *testing.T) {
	a, err := coldKeys(7, 40)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := coldKeys(7, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed must draw the same keys")
	}
	c, _ := coldKeys(8, 40)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds should draw different keys")
	}
	// 40 keys: every (alias, frames) scene twice, under two configurations,
	// the same two for every seed.
	mix := func(keys []simKey) map[[3]any]int {
		m := map[[3]any]int{}
		for _, k := range keys {
			m[[3]any{k.Alias, k.Frames, k.Config}]++
		}
		return m
	}
	scenes := map[[2]any]int{}
	for s, n := range mix(a) {
		if n != 1 {
			t.Errorf("(scene, config) %v drawn %d times; want once", s, n)
		}
		scenes[[2]any{s[0], s[1]}]++
	}
	if len(scenes) != 20 {
		t.Fatalf("%d scenes drawn; want all 20", len(scenes))
	}
	for s, n := range scenes {
		if n != 2 {
			t.Errorf("scene %v drawn under %d configurations; want 2", s, n)
		}
	}
	if !reflect.DeepEqual(mix(a), mix(c)) {
		t.Error("two seeds must draw the same (scene, config) mix")
	}
	// The order is the same for every seed too; only the sizes differ.
	for i := range a {
		if a[i].Alias != c[i].Alias || a[i].Frames != c[i].Frames || a[i].Config != c[i].Config {
			t.Fatalf("key %d is %s under seed 7 but %s under seed 8; want the same scene and config", i, a[i], c[i])
		}
	}
	// 60 keys: every (alias, frames, configuration) once.
	sixty, _ := coldKeys(7, 60)
	if n := len(mix(sixty)); n != 60 {
		t.Errorf("60 keys cover %d (alias, frames, config) strata; want 60", n)
	}
	all, err := coldKeys(1, 240)
	if err != nil || len(all) != 240 {
		t.Fatalf("the whole grid: %d keys, %v", len(all), err)
	}
	seen := map[simKey]bool{}
	for _, k := range all {
		if seen[k] {
			t.Fatalf("key %s drawn twice", k)
		}
		seen[k] = true
	}
	if _, err := coldKeys(1, 241); err == nil {
		t.Error("more requests than distinct keys must fail")
	}
}

func TestMissKeysAreFreshAndBalanced(t *testing.T) {
	warm := map[simKey]bool{}
	for _, k := range hitGrid() {
		warm[k] = true
	}
	if len(warm) != 60 {
		t.Fatalf("hit grid has %d keys; want 60", len(warm))
	}
	m, err := missKeys(3, 120)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[simKey]bool{}
	perAlias := map[string]int{}
	for _, k := range m {
		if warm[k] || seen[k] {
			t.Fatalf("miss key %s is warm or repeated", k)
		}
		seen[k] = true
		perAlias[k.Alias]++
	}
	for a, n := range perAlias {
		if n != 12 {
			t.Errorf("alias %s drew %d misses; want 12", a, n)
		}
	}
	h1, h2 := hitDraws(5, 1000), hitDraws(5, 1000)
	if !reflect.DeepEqual(h1, h2) {
		t.Error("hit draws must be deterministic")
	}
	for _, k := range h1 {
		if !warm[k] {
			t.Fatalf("hit draw %s is not in the warm grid", k)
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Layer: "cluster", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Layer: "serve", Start: 2 * ms, End: 6 * ms},
		{ID: 3, Parent: 1, Layer: "serve", Start: 4 * ms, End: 8 * ms}, // hedge, overlapping
		{ID: 4, Parent: 2, Layer: "gpu", Start: 3 * ms, End: 20 * ms},  // clipped to its parent
	}
	self := selfTimes(spans)
	if self[1] != 4*ms {
		t.Errorf("gateway self = %v; want 4ms (10 - union 2..8)", self[1])
	}
	if self[2] != 1*ms {
		t.Errorf("shard self = %v; want 1ms", self[2])
	}
	by := layerSelf(spans)
	if by["serve"] != 5*ms {
		t.Errorf("serve layer self = %v; want 5ms", by["serve"])
	}
}

func TestRecorderParentsByRequestAcrossLayers(t *testing.T) {
	rec := newRecorder()
	c := rec.begin("client", "client", "r1", 0)
	g := rec.begin("gateway", "cluster", "r1", 0)
	s1 := rec.begin("shard-0", "serve", "r1", 0)
	s2 := rec.begin("shard-1", "serve", "r1", 0) // hedge
	other := rec.begin("client", "client", "r2", 0)
	for _, id := range []int{s2, s1, g, c, other} {
		rec.end(id)
	}
	parent := map[int]int{}
	for _, s := range rec.closed() {
		parent[s.ID] = s.Parent
	}
	want := map[int]int{c: 0, g: c, s1: g, s2: g, other: 0}
	if !reflect.DeepEqual(parent, want) {
		t.Errorf("parents = %v; want %v", parent, want)
	}
	if len(rec.open) != 0 {
		t.Errorf("open spans left: %v", rec.open)
	}
}

// TestInjectedWrongByteCountsAsFailure serves a real daemon through a
// handler that flips one byte of every response body and checks that the
// benchmark's oracles count the request as failed.
func TestInjectedWrongByteCountsAsFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulations")
	}
	sh, err := startShard("shard-0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.stop(context.Background())
	flip := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Post(sh.l.url+r.URL.Path, "application/json", r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		body := buf.Bytes()
		i := bytes.Index(body, []byte(`"memReads":`)) + len(`"memReads":`)
		body[i] = '0' + (body[i]-'0'+1)%10 // still valid JSON, one wrong digit
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}))
	defer flip.Close()

	r := &run{seed: 1, res: result{Correct: true, Metrics: map[string]metric{}}}
	keys := []simKey{{Alias: "GTr", Config: "tcor", KB: 32, Frames: 1}}
	p := coldPhase("fixed", 1, keys, 10)
	keep := sampled(p.Reqs, "cold")
	coldCheck(&p, keep)
	res := (&loadgen{client: newClient(1), url: flip.URL}).run(context.Background(), p)
	if res.Out[0].Status != http.StatusOK || res.Out[0].Wrong {
		t.Fatalf("the shape check alone cannot see a digit: status %d wrong %v", res.Out[0].Status, res.Out[0].Wrong)
	}
	acc := newLayerAcc()
	if err := r.checkReferences(res, keep, acc); err != nil {
		t.Fatal(err)
	}
	r.count(res, true)
	if r.res.Attempted != 1 || r.res.Failed != 1 || r.res.Correct {
		t.Errorf("attempted %d failed %d correct %v; want 1, 1, false", r.res.Attempted, r.res.Failed, r.res.Correct)
	}

	// The same request served untouched passes.
	r = &run{seed: 1, res: result{Correct: true, Metrics: map[string]metric{}}}
	p = coldPhase("fixed", 2, keys, 10)
	coldCheck(&p, keep)
	res = (&loadgen{client: newClient(1), url: sh.l.url}).run(context.Background(), p)
	if err := r.checkReferences(res, keep, acc); err != nil {
		t.Fatal(err)
	}
	r.count(res, true)
	if r.res.Failed != 0 || !r.res.Correct {
		t.Errorf("an untouched body failed its oracle: %+v %v", r.res, r.wrongs)
	}
}

// TestLadderMismatchCountsAsFailure checks that a wrong body in an
// unmeasured phase (a goodput-ladder step) clears correct and counts as
// failed, while the step's requests stay out of attempted.
func TestLadderMismatchCountsAsFailure(t *testing.T) {
	r := &run{res: result{Correct: true, Metrics: map[string]metric{}}}
	k := simKey{Alias: "GTr", Config: "tcor", KB: 32, Frames: 1}
	p := phaseResult{Name: "ladder.2",
		Reqs: []request{{Class: "cold", Key: k}, {Class: "cold", Key: k}},
		Out:  []outcome{{Status: http.StatusOK}, {Status: http.StatusOK, Wrong: true}}}
	r.count(p, false)
	if r.res.Attempted != 0 || r.res.Failed != 1 || r.res.Correct {
		t.Errorf("attempted %d failed %d correct %v; want 0, 1, false", r.res.Attempted, r.res.Failed, r.res.Correct)
	}
}

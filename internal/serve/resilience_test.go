package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tcor/internal/gpu"
	"tcor/internal/resilience"
	"tcor/internal/stats"
	"tcor/internal/workload"
)

// chaosServer builds a server with an armed injector and a fast fake
// simulator, so chaos tests measure the resilience machinery, not the GPU
// model.
func chaosServer(seed int64, site string, plan resilience.FaultPlan, opts Options) *Server {
	opts.Registry = stats.NewRegistry()
	inj := resilience.NewInjector(seed).Meter(opts.Registry)
	inj.Arm(site, plan)
	opts.Chaos = inj
	s := NewServer(opts)
	s.simulate = func(_ context.Context, scene *workload.Scene, _ gpu.Config) (*gpu.Result, error) {
		return &gpu.Result{Benchmark: scene.Spec.Alias, Frames: 1}, nil
	}
	return s
}

// TestChaosScheduleDeterministic drives the same request stream through two
// servers armed with the same seed and asserts the injected-fault schedule —
// observed as the HTTP status sequence — is identical, and that a different
// seed produces a different schedule.
func TestChaosScheduleDeterministic(t *testing.T) {
	plan := resilience.FaultPlan{Rate: 0.5, Codes: []int{500, 503}}
	drive := func(seed int64) []int {
		s := chaosServer(seed, resilience.SiteHTTP, plan, Options{Workers: 2})
		h := s.Handler()
		codes := make([]int, 40)
		for i := range codes {
			codes[i] = postJSON(h, "/v1/simulate", `{"benchmark":"GTr","frames":1}`).Code
		}
		return codes
	}
	a, b := drive(7), drive(7)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed produced different fault schedules:\n%v\n%v", a, b)
	}
	if c := drive(8); fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatalf("different seeds produced the same 40-request schedule: %v", a)
	}
}

// TestChaosFaultsNeverCorruptCache asserts the core chaos-mode safety
// property: injected HTTP faults answer before the handler, so however many
// faults a request stream absorbs, the cache computes each key once and
// every successful response serves identical bytes.
func TestChaosFaultsNeverCorruptCache(t *testing.T) {
	s := chaosServer(7, resilience.SiteHTTP,
		resilience.FaultPlan{Rate: 0.5, Codes: []int{500, 503}}, Options{Workers: 2})
	h := s.Handler()

	var okBody string
	oks, faults := 0, 0
	for i := 0; i < 40; i++ {
		rec := postJSON(h, "/v1/simulate", `{"benchmark":"GTr","frames":1}`)
		switch rec.Code {
		case http.StatusOK:
			oks++
			if okBody == "" {
				okBody = rec.Body.String()
			} else if rec.Body.String() != okBody {
				t.Fatalf("request %d: successful body changed under chaos", i)
			}
		default:
			faults++
			var eb ErrorBody
			if json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Error.Code != "injected_fault" {
				t.Fatalf("request %d: non-200 is not an injected fault: %d %s", i, rec.Code, rec.Body)
			}
		}
	}
	if oks == 0 || faults == 0 {
		t.Fatalf("rate 0.5 over 40 requests gave %d oks, %d faults; the test exercised nothing", oks, faults)
	}
	snap := s.reg.Snapshot()
	if got := snap.Get("serve.cache.misses"); got != 1 {
		t.Fatalf("serve.cache.misses = %d, want 1 (faults must not reach the cache)", got)
	}
	if got := snap.Get("chaos.serve.http.injected"); got != int64(faults) {
		t.Fatalf("chaos.serve.http.injected = %d, want %d", got, faults)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("serving-layer invariants: %v", err)
	}
}

// TestChaosExemptsObservability asserts the drill can always be measured:
// with every request faulted (rate 1), the health, readiness, metrics,
// stats and debug endpoints still answer normally, tick no chaos counters,
// and do not advance the seeded schedule — the Nth API request sees the
// same fault decision no matter how many probes were interleaved.
func TestChaosExemptsObservability(t *testing.T) {
	plan := resilience.FaultPlan{Rate: 1, Codes: []int{500}}
	s := chaosServer(7, resilience.SiteHTTP, plan, Options{Workers: 1})
	h := s.Handler()

	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/v1/stats", "/debug/trace"} {
		if rec := getPath(h, path); rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d under rate-1 chaos, want 200 (exempt)", path, rec.Code)
		}
	}
	snap := s.reg.Snapshot()
	if got := snap.Get("chaos.serve.http.injected"); got != 0 {
		t.Fatalf("chaos.serve.http.injected = %d after exempt-only traffic, want 0", got)
	}
	if got := snap.Get("chaos.serve.http.evaluations"); got != 0 {
		t.Fatalf("chaos.serve.http.evaluations = %d; exempt paths must not advance the schedule", got)
	}
	if rec := postJSON(h, "/v1/simulate", `{"benchmark":"GTr","frames":1}`); rec.Code != http.StatusInternalServerError {
		t.Fatalf("POST /v1/simulate = %d under rate-1 chaos, want the injected 500", rec.Code)
	}

	// Schedule invariance: a probe-free server and a probe-heavy server see
	// the same status sequence on the API path.
	drive := func(probes int) []int {
		s := chaosServer(7, resilience.SiteHTTP,
			resilience.FaultPlan{Rate: 0.5, Codes: []int{500, 503}}, Options{Workers: 1})
		h := s.Handler()
		codes := make([]int, 20)
		for i := range codes {
			for p := 0; p < probes; p++ {
				getPath(h, "/healthz")
			}
			codes[i] = postJSON(h, "/v1/simulate", `{"benchmark":"GTr","frames":1}`).Code
		}
		return codes
	}
	if a, b := drive(0), drive(3); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("interleaved probes shifted the fault schedule:\n%v\n%v", a, b)
	}
}

// TestInjectedPanicInSingleflightLeader arms a scripted panic at the
// simulate site — inside the cache's singleflight leader — while a second
// identical request is coalesced onto it. The panic must answer both
// requests with 500s, count once, leave the key unpoisoned and leave the
// daemon serving.
func TestInjectedPanicInSingleflightLeader(t *testing.T) {
	inj := resilience.NewInjector(1)
	inj.Arm(resilience.SiteSimulate, resilience.FaultPlan{
		Seq:     []resilience.FaultKind{resilience.KindPanic},
		Latency: 500 * time.Millisecond, // holds the leader so the waiter provably coalesces
	})
	s := NewServer(Options{Workers: 1, Chaos: inj, Breaker: &resilience.BreakerConfig{}})
	s.simulate = func(_ context.Context, scene *workload.Scene, _ gpu.Config) (*gpu.Result, error) {
		return &gpu.Result{Benchmark: scene.Spec.Alias, Frames: 1}, nil
	}
	h := s.Handler()
	const body = `{"benchmark":"GTr","frames":1}`

	var wg sync.WaitGroup
	codes := make([]int, 2)
	errCodes := make([]string, 2)
	post := func(i int) {
		defer wg.Done()
		rec := postJSON(h, "/v1/simulate", body)
		codes[i] = rec.Code
		var eb ErrorBody
		if json.Unmarshal(rec.Body.Bytes(), &eb) == nil {
			errCodes[i] = eb.Error.Code
		}
	}
	wg.Add(1)
	go post(0)
	waitFor(t, func() bool { return s.reg.Snapshot().Get("serve.cache.misses") == 1 })
	wg.Add(1)
	go post(1)
	waitFor(t, func() bool { return s.reg.Snapshot().Get("serve.cache.coalesced") == 1 })
	wg.Wait()

	for i := range codes {
		if codes[i] != http.StatusInternalServerError || errCodes[i] != "internal_panic" {
			t.Fatalf("request %d = %d %q, want 500 internal_panic", i, codes[i], errCodes[i])
		}
	}
	if got := s.reg.Snapshot().Get("serve.panics"); got != 1 {
		t.Fatalf("serve.panics = %d, want 1 (the waiter observes the leader's panic, not its own)", got)
	}
	// The sequence is exhausted: the key recomputes cleanly, proving the
	// panicked cell was dropped rather than cached poisoned.
	if rec := postJSON(h, "/v1/simulate", body); rec.Code != http.StatusOK {
		t.Fatalf("request after the injected panic = %d (body %s), want 200", rec.Code, rec.Body)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("serving-layer invariants: %v", err)
	}
}

// TestBreakerOpenStillServesHits walks the degradation path end to end on a
// fake clock: compute failures trip the breaker, /readyz degrades, the
// breaker short-circuits new compute while cached results keep serving as
// plain hits, and a successful probe after the cooldown closes the breaker
// again.
func TestBreakerOpenStillServesHits(t *testing.T) {
	fc := resilience.NewFakeClock(time.Unix(1000, 0))
	var failing sync.Map // alias -> bool
	s := NewServer(Options{
		Workers: 1,
		Clock:   fc,
		// The healthy warm-up run below counts as a window success, so two
		// failures make 2/3 >= 0.6 at the 3-sample minimum: trip.
		Breaker: &resilience.BreakerConfig{
			Window: 4, MinSamples: 3, FailureRatio: 0.6,
			Cooldown: 5 * time.Minute, ProbeSuccesses: 1,
		},
	})
	s.simulate = func(_ context.Context, scene *workload.Scene, _ gpu.Config) (*gpu.Result, error) {
		if v, ok := failing.Load(scene.Spec.Alias); ok && v.(bool) {
			return nil, errors.New("simulator down")
		}
		return &gpu.Result{Benchmark: scene.Spec.Alias, Frames: 1}, nil
	}
	h := s.Handler()

	// A healthy run fills the cache.
	good := postJSON(h, "/v1/simulate", `{"benchmark":"GTr","frames":1}`)
	if good.Code != http.StatusOK {
		t.Fatalf("healthy request = %d (body %s)", good.Code, good.Body)
	}

	// Two compute failures reach the 2-sample window's 0.5 ratio: trip.
	failing.Store("CCS", true)
	for i := 0; i < 2; i++ {
		if rec := postJSON(h, "/v1/simulate", `{"benchmark":"CCS","frames":1}`); rec.Code != http.StatusInternalServerError {
			t.Fatalf("failing request %d = %d, want 500", i, rec.Code)
		}
	}
	if st := s.brk.State(); st != resilience.Open {
		t.Fatalf("breaker = %v after the failure streak, want Open", st)
	}
	if rec := getPath(h, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d with the breaker open, want 503 degraded", rec.Code)
	}

	// Open breaker: new compute short-circuits with a cooldown hint.
	rec := postJSON(h, "/v1/simulate", `{"benchmark":"CCS","frames":1}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("short-circuited request = %d, want 503", rec.Code)
	}
	var eb ErrorBody
	if json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Error.Code != "breaker_open" {
		t.Fatalf("short-circuit error code = %q, want breaker_open", eb.Error.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "300" {
		t.Fatalf("Retry-After = %q, want the 5m cooldown as 300", ra)
	}
	if got := s.reg.Snapshot().Get("serve.breaker.shortCircuits"); got != 1 {
		t.Fatalf("serve.breaker.shortCircuits = %d, want 1", got)
	}

	// The open breaker only guards compute: a cached key is still a plain
	// hit with the original bytes, and so is a cache-only probe.
	for _, probe := range []bool{false, true} {
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(`{"benchmark":"GTr","frames":1}`))
		if probe {
			req.Header.Set(CacheOnlyHeader, "1")
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("cached request (probe=%v) = %d (body %s), want 200", probe, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("X-Tcord-Cache"); got != "hit" {
			t.Fatalf("X-Tcord-Cache (probe=%v) = %q, want hit", probe, got)
		}
		if w := rec.Header().Get("Warning"); w != "" {
			t.Fatalf("cached response (probe=%v) carries Warning %q", probe, w)
		}
		if rec.Body.String() != good.Body.String() {
			t.Fatalf("cached response bytes (probe=%v) differ from the original", probe)
		}
	}

	// Cooldown elapses, the dependency recovers: one successful probe
	// closes the breaker and readiness returns.
	failing.Store("CCS", false)
	fc.Advance(5 * time.Minute)
	if rec := postJSON(h, "/v1/simulate", `{"benchmark":"CCS","frames":1}`); rec.Code != http.StatusOK {
		t.Fatalf("probe request = %d (body %s), want 200", rec.Code, rec.Body)
	}
	if st := s.brk.State(); st != resilience.Closed {
		t.Fatalf("breaker = %v after a successful probe, want Closed", st)
	}
	if rec := getPath(h, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("readyz = %d after recovery, want 200", rec.Code)
	}
	if got := s.reg.Snapshot().Get("serve.breaker.transitions"); got != 3 {
		t.Fatalf("serve.breaker.transitions = %d, want 3 (closed->open->half-open->closed)", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("serving-layer invariants: %v", err)
	}
}

// TestRetryAfterEstimateFromLoad pins the 429 hint to the documented
// formula: with one worker busy, one request queued and an empty duration
// histogram (p50 floored at 1s), the rejected caller is three pool
// turnovers out.
func TestRetryAfterEstimateFromLoad(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s := NewServer(Options{Workers: 1, QueueDepth: 1})
	s.simulate = blockingSim(started, release)
	h := s.Handler()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postJSON(h, "/v1/simulate", fmt.Sprintf(`{"benchmark":"CCS","tileCacheKB":%d}`, 64+i))
		}(i)
	}
	<-started
	waitFor(t, func() bool { return s.reg.Snapshot().Get("serve.queue.depth") == 1 })

	rec := postJSON(h, "/v1/simulate", `{"benchmark":"CCS","tileCacheKB":128}`)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want 3 (backlog 3 / 1 worker x 1s p50 floor)", ra)
	}
	close(release)
	wg.Wait()
}

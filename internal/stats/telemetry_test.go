package stats

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- Histogram ---

func TestHistogramNilSafety(t *testing.T) {
	var h *Histogram
	h.Observe(5)
	h.ObserveSince(time.Now())
	h.Merge(nil)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram must read 0")
	}
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Error("nil histogram snapshot must be empty")
	}
	if NewTracer(0) != nil || NewTracer(-1) != nil {
		t.Error("NewTracer(<=0) must return the nil no-op recorder")
	}
}

func TestHistogramBucketScheme(t *testing.T) {
	// Bucket 0 holds <= 0; bucket i holds [2^(i-1), 2^i - 1].
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {math.MaxInt64, HistogramBuckets - 1},
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.v); got != tc.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	// Every value must lie within its bucket's bounds.
	for _, v := range []int64{1, 2, 3, 100, 1e6, 1e12, math.MaxInt64} {
		i := bucketIndex(v)
		if v > BucketUpper(i) {
			t.Errorf("value %d above its bucket %d upper %d", v, i, BucketUpper(i))
		}
		if i > 0 && v <= BucketUpper(i-1) {
			t.Errorf("value %d fits bucket %d already", v, i-1)
		}
	}
}

func TestHistogramQuantileVsReference(t *testing.T) {
	// Against an exact order statistic over a deterministic sample, the
	// log-2 histogram estimate must stay within a factor of two — the
	// documented resolution of the bucket scheme.
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	values := make([]int64, 0, 5000)
	for i := 0; i < 5000; i++ {
		// Log-uniform over ~6 decades, like a latency distribution.
		v := int64(math.Exp(rng.Float64()*14)) + 1
		values = append(values, v)
		h.Observe(v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	snap := h.Snapshot()
	if snap.Count != 5000 {
		t.Fatalf("count = %d, want 5000", snap.Count)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		idx := int(q*float64(len(values))) - 1
		if idx < 0 {
			idx = 0
		}
		exact := float64(values[idx])
		est := snap.Quantile(q)
		if est < exact/2 || est > exact*2 {
			t.Errorf("q%.2f estimate %.0f outside factor-2 of exact %.0f", q, est, exact)
		}
	}
	// The mean is exact (running sum), not bucket-resolution.
	var sum int64
	for _, v := range values {
		sum += v
	}
	if got, want := snap.Mean(), float64(sum)/5000; math.Abs(got-want) > 1e-9 {
		t.Errorf("mean = %v, want %v", got, want)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := int64(1); i <= 10; i++ {
		a.Observe(i)
		b.Observe(i * 100)
	}
	a.Merge(&b)
	if a.Count() != 20 {
		t.Errorf("merged count = %d, want 20", a.Count())
	}
	if want := int64(55 + 5500); a.Sum() != want {
		t.Errorf("merged sum = %d, want %d", a.Sum(), want)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	// Exact totals under concurrent Observe (run with -race).
	var h Histogram
	const goroutines, perG = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(int64(g*perG + i))
			}
		}(g)
	}
	wg.Wait()
	n := int64(goroutines * perG)
	if h.Count() != n {
		t.Errorf("count = %d, want %d", h.Count(), n)
	}
	if want := n * (n - 1) / 2; h.Sum() != want {
		t.Errorf("sum = %d, want %d", h.Sum(), want)
	}
	var inBuckets int64
	for _, b := range h.Snapshot().Buckets {
		inBuckets += b
	}
	if inBuckets != n {
		t.Errorf("bucket total = %d, want %d", inBuckets, n)
	}
}

func TestRegistryHistogramDerivedKeys(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("serve.lat")
	if r.Histogram("serve.lat") != h {
		t.Fatal("same name must return the same histogram")
	}
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	s := r.Snapshot()
	if s.Get("serve.lat.count") != 100 || s.Get("serve.lat.sum") != 5050 {
		t.Errorf("derived count/sum wrong: %v", s)
	}
	for _, k := range []string{"serve.lat.p50", "serve.lat.p90", "serve.lat.p99"} {
		if s.Get(k) <= 0 {
			t.Errorf("derived %s missing from snapshot", k)
		}
	}
	if len(r.Histograms()) != 1 {
		t.Errorf("Histograms() = %v", r.Histograms())
	}
}

// --- Prometheus exposition ---

func TestPrometheusGolden(t *testing.T) {
	// The exposition format is a wire contract; pin it byte for byte.
	r := NewRegistry()
	r.Counter("l2.hits").Store(42)
	r.Gauge("queue.depth").Set(3)
	h := r.Histogram("http.latency")
	h.Observe(1) // bucket le=1
	h.Observe(3) // bucket le=3
	h.Observe(3)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b, "tcor"); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# TYPE tcor_http_latency histogram`,
		`tcor_http_latency_bucket{le="0"} 0`,
		`tcor_http_latency_bucket{le="1"} 1`,
		`tcor_http_latency_bucket{le="3"} 3`,
		`tcor_http_latency_bucket{le="+Inf"} 3`,
		`tcor_http_latency_sum 7`,
		`tcor_http_latency_count 3`,
		`# TYPE tcor_l2_hits counter`,
		`tcor_l2_hits 42`,
		`# TYPE tcor_queue_depth gauge`,
		`tcor_queue_depth 3`,
	}, "\n") + "\n"
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Inc()
	rec := httptest.NewRecorder()
	MetricsHandler("ns", r).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "ns_hits 1") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

// --- Tracer ---

func TestTracerSpans(t *testing.T) {
	tr := NewTracer(4)
	root := tr.Begin("req", "serve")
	child := root.Child("sim", "gpu")
	child.SetAttr("bench", "CCS")
	child.End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("len = %d, want 2", len(spans))
	}
	// Spans() sorts by start: root began first.
	if spans[0].Name != "req" || spans[1].Name != "sim" {
		t.Fatalf("order = %s, %s", spans[0].Name, spans[1].Name)
	}
	if spans[1].Parent != spans[0].ID || spans[1].Root != spans[0].ID {
		t.Error("child must link to its root ancestor")
	}
	if spans[1].Attrs["bench"] != "CCS" {
		t.Errorf("attrs = %v", spans[1].Attrs)
	}

	// Overflow drops and counts instead of growing.
	for i := 0; i < 5; i++ {
		tr.Begin("x", "t").End()
	}
	if tr.Len() != 4 || tr.Dropped() != 3 {
		t.Errorf("len = %d dropped = %d, want 4 and 3", tr.Len(), tr.Dropped())
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Error("Reset must clear spans and the dropped count")
	}

	// Nil-safe no-op chain.
	var nilTr *Tracer
	sp := nilTr.Begin("a", "b")
	sp.SetAttr("k", "v")
	sp.Child("c", "d").End()
	sp.End()
	if nilTr.Len() != 0 || nilTr.Spans() != nil {
		t.Error("nil tracer must record nothing")
	}
}

func TestTracerConcurrent(t *testing.T) {
	// Race-clean concurrent span recording with exact drop accounting
	// (run with -race).
	tr := NewTracer(500)
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sp := tr.Begin("op", "test")
				sp.SetAttr("g", strconv.Itoa(g))
				sp.Child("inner", "test").End()
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	total := int64(goroutines * perG * 2)
	if got := int64(tr.Len()) + tr.Dropped(); got != total {
		t.Errorf("len+dropped = %d, want %d", got, total)
	}
	if tr.Len() != 500 {
		t.Errorf("len = %d, want the full capacity 500", tr.Len())
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer(16)
	root := tr.Begin("frame", "gpu")
	child := root.Child("tile", "gpu")
	child.SetAttr("tile", "7")
	child.End()
	root.End()

	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int64             `json:"pid"`
			Tid  int64             `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("events = %d, want 2", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Ts < 0 || e.Dur < 0 {
			t.Errorf("bad event %+v", e)
		}
	}
	// Parent and child share the root's track; the child names its parent.
	if doc.TraceEvents[0].Tid != doc.TraceEvents[1].Tid {
		t.Error("parent and child must share a tid (track)")
	}
	if doc.TraceEvents[1].Args["parent"] == "" || doc.TraceEvents[1].Args["tile"] != "7" {
		t.Errorf("child args = %v", doc.TraceEvents[1].Args)
	}

	// A nil tracer exports the valid empty document.
	b.Reset()
	var nilTr *Tracer
	if err := nilTr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(b.String()) != `{"traceEvents":[]}` {
		t.Errorf("nil trace = %q", b.String())
	}
}

func TestStartSpanContext(t *testing.T) {
	// No tracer in context: everything no-ops and the context is unchanged.
	ctx := context.Background()
	sp, ctx2 := StartSpan(ctx, "a", "t")
	if sp != nil || ctx2 != ctx {
		t.Error("StartSpan without a tracer must return nil and the input ctx")
	}

	tr := NewTracer(8)
	ctx = ContextWithTracer(ctx, tr)
	if TracerFrom(ctx) != tr {
		t.Fatal("TracerFrom lost the tracer")
	}
	root, ctx := StartSpan(ctx, "outer", "t")
	child, _ := StartSpan(ctx, "inner", "t")
	child.End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	var inner SpanRecord
	for _, s := range spans {
		if s.Name == "inner" {
			inner = s
		}
	}
	if inner.Parent == 0 {
		t.Error("inner span must be parented under outer via the context")
	}
}

// --- debug HTTP surface ---

// debugGet fetches path from a debug server and returns status and body.
func debugGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServeDebug pins the debug server's own surface: with a nil handler
// it serves pprof and nothing else.
func TestServeDebug(t *testing.T) {
	addr, stop, err := ServeDebug("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for path, want := range map[string]int{
		"/debug/pprof/": http.StatusOK,
		"/debug/vars":   http.StatusNotFound,
		"/metrics":      http.StatusNotFound,
		"/debug/trace":  http.StatusNotFound,
	} {
		if code, _ := debugGet(t, addr, path); code != want {
			t.Errorf("nil handler: %s answered %d, want %d", path, code, want)
		}
	}
}

// TestDebugEndpoints mounts a caller's handler shaped like the CLIs' -http
// pages (/v1/stats, /metrics, /debug/trace) and checks each of its paths
// answers next to pprof.
func TestDebugEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits").Store(9)
	reg.Histogram("lat").Observe(100)
	tr := NewTracer(8)
	tr.Begin("op", "test").End()

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(reg.Snapshot()) //nolint:errcheck // best-effort over HTTP
	})
	mux.Handle("/metrics", MetricsHandler("dbgtest", reg))
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		tr.WriteChromeTrace(w) //nolint:errcheck // best-effort over HTTP
	})

	addr, stop, err := ServeDebug("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	if code, _ := debugGet(t, addr, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof answered %d next to a handler", code)
	}
	if code, _ := debugGet(t, addr, "/debug/vars"); code != http.StatusNotFound {
		t.Errorf("/debug/vars answered %d, want 404", code)
	}

	code, body := debugGet(t, addr, "/v1/stats")
	var snap map[string]int64
	if err := json.Unmarshal([]byte(body), &snap); code != http.StatusOK || err != nil {
		t.Fatalf("/v1/stats: code %d err %v body %q", code, err, body)
	}
	if snap["hits"] != 9 || snap["lat.count"] != 1 {
		t.Errorf("/v1/stats snapshot = %v", snap)
	}

	if code, body := debugGet(t, addr, "/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "dbgtest_hits 9") ||
		!strings.Contains(body, "dbgtest_lat_count 1") {
		t.Errorf("/metrics: code %d body %q", code, body)
	}

	code, body = debugGet(t, addr, "/debug/trace")
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); code != http.StatusOK || err != nil || len(doc.TraceEvents) != 1 {
		t.Errorf("/debug/trace: code %d err %v body %q", code, err, body)
	}
}

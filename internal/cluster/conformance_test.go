package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path"
	"strings"
	"testing"
	"time"

	"tcor/internal/serve"
)

// The daemon ≡ gateway conformance contract: any request answered by a
// daemon and by a one-shard gateway over a daemon built from the same
// serve.Options gets the same status, the same error code, the same Allow
// header and — on a 2xx — the same body bytes. Three things are outside it
// by design, and the harness leaves them out:
//
//   - the gateway's own endpoints (/v1/ring, /v1/cluster/...), which a
//     daemon does not serve;
//   - 2xx bodies that describe the answering process rather than the
//     request: /v1/stats, /metrics, /debug/..., and job records, which
//     carry their creation time;
//   - tenant credentials outside the proxied API. The gateway holds no
//     roster and authenticates nothing itself — the shard does — so a
//     credential has a tier-independent answer only on a request the
//     gateway forwards. The harness sends one only with a proxied call a
//     keyless daemon serves 2xx.

// conformanceBodyLimit keeps oversize bodies small in the corpus; both
// tiers are configured with it.
const conformanceBodyLimit = 16 << 10

// exchange is one conformance case: the request both tiers receive.
type exchange struct {
	method, path, body, tenant string
}

// conformanceCases seed the table test and the fuzzer.
var conformanceCases = []struct {
	name string
	ex   exchange
}{
	{"valid simulate", exchange{"POST", "/v1/simulate", `{"benchmark":"GTr","frames":1}`, ""}},
	{"simulate trailing content", exchange{"POST", "/v1/simulate", `{"benchmark":"GTr","frames":1} xx`, ""}},
	{"sweep trailing content", exchange{"POST", "/v1/sweep", `{"items":[{"benchmark":"GTr","frames":1}]} xx`, ""}},
	{"arena trailing content", exchange{"POST", "/v1/arena", `{"policies":["LRU"],"benchmarks":["GTr"],"sizeKB":16} xx`, ""}},
	{"simulate unknown field", exchange{"POST", "/v1/simulate", `{"benchmark":"GTr","turbo":true}`, ""}},
	{"simulate oversize body", exchange{"POST", "/v1/simulate", `{"benchmark":"` + strings.Repeat("x", conformanceBodyLimit) + `"}`, ""}},
	{"simulate over frame limit", exchange{"POST", "/v1/simulate", `{"benchmark":"GTr","frames":2}`, ""}},
	{"simulate tcor at list cache size", exchange{"POST", "/v1/simulate", `{"benchmark":"GTr","frames":1,"tileCacheKB":16}`, ""}},
	{"simulate unknown tenant", exchange{"POST", "/v1/simulate", `{"benchmark":"GTr","frames":1}`, "no-such-key"}},
	{"valid sweep", exchange{"POST", "/v1/sweep", `{"items":[{"benchmark":"GTr","frames":1},{"benchmark":"GTr","frames":1,"config":"baseline"}]}`, ""}},
	{"GET simulate", exchange{"GET", "/v1/simulate", "", ""}},
	{"PUT version", exchange{"PUT", "/v1/version", "", ""}},
	{"POST job", exchange{"POST", "/v1/jobs/abc", "", ""}},
	{"GET unknown job", exchange{"GET", "/v1/jobs/abc", "", ""}},
	{"GET benchmarks", exchange{"GET", "/v1/benchmarks", "", ""}},
}

// tiers is a daemon and a one-shard gateway over an identically built
// daemon.
type tiers struct {
	daemon, gateway string
	client          *http.Client
}

func newTiers(tb testing.TB) *tiers {
	tb.Helper()
	start := func() string {
		srv := serve.NewServer(serve.Options{
			JobsDir:      tb.TempDir(),
			MaxFrames:    1,
			MaxBodyBytes: conformanceBodyLimit,
		})
		hs := httptest.NewServer(srv.Handler())
		tb.Cleanup(func() {
			hs.Close()
			srv.Shutdown(context.Background()) //nolint:errcheck // stops background jobs before the temp dir goes
		})
		return hs.URL
	}
	daemon, shard := start(), start()
	gw, err := NewGateway(Options{
		Shards:        []string{shard},
		MaxBodyBytes:  conformanceBodyLimit,
		MaxSweepItems: 64, // the shard's own default limit
	})
	if err != nil {
		tb.Fatal(err)
	}
	gs := httptest.NewServer(gw.Handler())
	tb.Cleanup(gs.Close)
	return &tiers{
		daemon:  daemon,
		gateway: gs.URL,
		client: &http.Client{
			Timeout: time.Minute,
			CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			},
		},
	}
}

// observed is what the contract compares of one response.
type observed struct {
	status int
	code   string
	allow  string
	body   []byte
}

func (tr *tiers) do(base string, ex exchange) (observed, error) {
	req, err := http.NewRequest(ex.method, base+ex.path, strings.NewReader(ex.body))
	if err != nil {
		return observed{}, err
	}
	if ex.tenant != "" {
		req.Header.Set(serve.TenantHeader, ex.tenant)
	}
	resp, err := tr.client.Do(req)
	if err != nil {
		return observed{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return observed{}, err
	}
	a := observed{status: resp.StatusCode, allow: resp.Header.Get("Allow"), body: body}
	var eb serve.ErrorBody
	if json.Unmarshal(body, &eb) == nil {
		a.code = eb.Error.Code
	}
	return a, nil
}

// check sends ex to both tiers and enforces the contract; requests outside
// it (see above) are skipped.
func (tr *tiers) check(tb testing.TB, ex exchange) {
	tb.Helper()
	if !strings.HasPrefix(ex.path, "/") {
		return
	}
	u, err := url.Parse(ex.path)
	if err != nil {
		return
	}
	clean := path.Clean(u.Path)
	if clean == "/v1/ring" || strings.HasPrefix(clean, "/v1/cluster") {
		return
	}
	proxied := clean == "/v1/simulate" || clean == "/v1/sweep" || clean == "/v1/arena" ||
		strings.HasPrefix(clean, "/v1/jobs")
	if ex.tenant != "" {
		keyless := ex
		keyless.tenant = ""
		if a, err := tr.do(tr.daemon, keyless); !proxied || err != nil || a.status/100 != 2 {
			return
		}
	}

	want, err := tr.do(tr.daemon, ex)
	if err != nil {
		return // not a request a client can send (bad method, header or URL)
	}
	got, err := tr.do(tr.gateway, ex)
	if err != nil {
		tb.Fatalf("%s %s: the daemon answered, the gateway failed: %v", ex.method, ex.path, err)
	}
	if got.status != want.status || got.code != want.code || got.allow != want.allow {
		tb.Fatalf("%s %s body %.120q tenant %q:\n daemon  %d code=%q allow=%q %.200s\n gateway %d code=%q allow=%q %.200s",
			ex.method, ex.path, ex.body, ex.tenant,
			want.status, want.code, want.allow, want.body, got.status, got.code, got.allow, got.body)
	}
	perProcess := clean == "/v1/stats" || clean == "/metrics" || strings.HasPrefix(clean, "/debug/") ||
		strings.HasPrefix(clean, "/v1/jobs") || u.Query().Has("async")
	if want.status/100 == 2 && !perProcess && !bytes.Equal(got.body, want.body) {
		tb.Fatalf("%s %s: 2xx bodies differ:\n daemon  %.300s\n gateway %.300s",
			ex.method, ex.path, want.body, got.body)
	}
}

// TestGatewayConformance: every seed case answers identically on a daemon
// and through a one-shard gateway.
func TestGatewayConformance(t *testing.T) {
	tr := newTiers(t)
	for _, tc := range conformanceCases {
		t.Run(tc.name, func(t *testing.T) { tr.check(t, tc.ex) })
	}
}

// FuzzGatewayConformance searches for requests the two tiers answer
// differently (go test -run '^$' -fuzz FuzzGatewayConformance).
func FuzzGatewayConformance(f *testing.F) {
	for _, tc := range conformanceCases {
		f.Add(tc.ex.method, tc.ex.path, tc.ex.body, tc.ex.tenant)
	}
	tr := newTiers(f)
	f.Fuzz(func(t *testing.T, method, target, body, tenant string) {
		tr.check(t, exchange{method, target, body, tenant})
	})
}

package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tcor/internal/serve"
)

// headerTrap records the identifying headers of every request a fake shard
// receives, keyed by URL path.
type headerTrap struct {
	mu   sync.Mutex
	seen []http.Header
}

func (ht *headerTrap) record(r *http.Request) {
	ht.mu.Lock()
	ht.seen = append(ht.seen, r.Header.Clone())
	ht.mu.Unlock()
}

func (ht *headerTrap) last() http.Header {
	ht.mu.Lock()
	defer ht.mu.Unlock()
	if len(ht.seen) == 0 {
		return nil
	}
	return ht.seen[len(ht.seen)-1]
}

// postSimAs drives one /v1/simulate request through the gateway with a
// tenant credential and caller-chosen request ID.
func postSimAs(t *testing.T, url string, req serve.SimulateRequest, tenantKey, reqID string) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(serve.TenantHeader, tenantKey)
	hreq.Header.Set(serve.RequestIDHeader, reqID)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestGatewayTenantSurvivesFailover: the caller's tenant credential and
// request ID both reach the failover shard — quota and cache accounting
// follow the caller wherever the request lands, and the access logs stay
// greppable under one ID.
func TestGatewayTenantSurvivesFailover(t *testing.T) {
	fc := newFakeCluster(t, 2)
	g, srv := newTestGateway(t, fc, singleAttempt())

	order := ownerOf(t, g, testSim)
	var trap headerTrap
	fc.setRole(order[0], fail(http.StatusInternalServerError, "internal"))
	fc.setRole(order[1], func(w http.ResponseWriter, r *http.Request) {
		trap.record(r)
		answer("{\"from\":\"successor\"}\n", "miss")(w, r)
	})

	resp := postSimAs(t, srv.URL, testSim, "key-acme", "req-failover-1")
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover got %d %q", resp.StatusCode, body)
	}
	hdr := trap.last()
	if hdr == nil {
		t.Fatal("the successor never saw the request")
	}
	if got := hdr.Get(serve.TenantHeader); got != "key-acme" {
		t.Fatalf("failover attempt carried tenant %q, want key-acme", got)
	}
	if got := hdr.Get(serve.RequestIDHeader); got != "req-failover-1" {
		t.Fatalf("failover attempt carried request ID %q, want req-failover-1", got)
	}
}

// TestGatewayTenantSurvivesHedge: the latency hedge's second copy carries
// the same tenant credential and request ID as the first.
func TestGatewayTenantSurvivesHedge(t *testing.T) {
	fc := newFakeCluster(t, 2)
	opts := singleAttempt()
	opts.HedgeAfter = 20 * time.Millisecond
	g, srv := newTestGateway(t, fc, opts)

	order := ownerOf(t, g, testSim)
	var trap headerTrap
	fc.setRole(order[0], func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(400 * time.Millisecond)
		answer("{\"from\":\"slow\"}\n", "miss")(w, r)
	})
	fc.setRole(order[1], func(w http.ResponseWriter, r *http.Request) {
		trap.record(r)
		answer("{\"from\":\"fast\"}\n", "hit")(w, r)
	})

	resp := postSimAs(t, srv.URL, testSim, "key-acme", "req-hedge-1")
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "fast") {
		t.Fatalf("hedged request got %d %q", resp.StatusCode, body)
	}
	hdr := trap.last()
	if hdr == nil {
		t.Fatal("the hedge target never saw the request")
	}
	if got := hdr.Get(serve.TenantHeader); got != "key-acme" {
		t.Fatalf("hedge attempt carried tenant %q, want key-acme", got)
	}
	if got := hdr.Get(serve.RequestIDHeader); got != "req-hedge-1" {
		t.Fatalf("hedge attempt carried request ID %q, want req-hedge-1", got)
	}
}

// jobShard answers the job endpoints the way a real shard would: an async
// sweep submission is acknowledged with the content-addressed ID recomputed
// from the exact body received, and single-job reads answer from a fixed
// record set.
func jobShard(records map[string]serve.JobRecord) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/v1/sweep" && serve.AsyncRequested(r):
			body, _ := io.ReadAll(r.Body)
			id := serve.JobID(serve.JobKindSweep, serve.TenantKeyFromRequest(r), body)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(serve.JobResponse{Job: serve.JobRecord{
				ID: id, Kind: serve.JobKindSweep, Tenant: "default",
				State: serve.JobQueued, TotalCells: 1, CreatedAtMs: 42,
			}})
		case r.URL.Path == "/v1/jobs":
			var jobs []serve.JobRecord
			for _, rec := range records {
				jobs = append(jobs, rec)
			}
			if jobs == nil {
				jobs = []serve.JobRecord{}
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(serve.JobsResponse{Jobs: jobs})
		case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
			rec, ok := records[id]
			if !ok {
				fail(http.StatusNotFound, "job_not_found")(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(serve.JobResponse{Job: rec})
		default:
			fail(http.StatusInternalServerError, "unexpected_path")(w, r)
		}
	}
}

// TestGatewayAsyncSubmitRoutesToJobOwner: an ?async=1 submission lands on
// the ring owner of the job's content address — the ID the shard derives
// from the forwarded body matches the one the gateway routed by — and the
// shard's 202 passes through.
func TestGatewayAsyncSubmitRoutesToJobOwner(t *testing.T) {
	fc := newFakeCluster(t, 3)
	for _, u := range fc.urls {
		fc.setRole(u, jobShard(nil))
	}
	g, srv := newTestGateway(t, fc, singleAttempt())

	req := serve.SweepRequest{Items: []serve.SimulateRequest{testSim}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	wantID := serve.JobID(serve.JobKindSweep, "key-acme", body)
	wantOwner := g.shards[g.Ring().Successors(wantID)[0]].name

	hreq, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/sweep?async=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(serve.TenantHeader, "key-acme")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	raw := readBody(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit got %d %q, want 202", resp.StatusCode, raw)
	}
	var jr serve.JobResponse
	if err := json.Unmarshal([]byte(raw), &jr); err != nil {
		t.Fatalf("decoding job response: %v\n%s", err, raw)
	}
	if jr.Job.ID != wantID {
		t.Fatalf("shard derived job ID %s, gateway routed by %s — the body was not forwarded verbatim", jr.Job.ID, wantID)
	}
	if got := resp.Header.Get(serve.ShardHeader); got != wantOwner {
		t.Fatalf("submission served by %s, ring owner of the job is %s", got, wantOwner)
	}
	if got := g.Registry().Snapshot().Get("gw.jobs.submits"); got != 1 {
		t.Fatalf("gw.jobs.submits = %d, want 1", got)
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGatewayJobLookupWalksRing: a shard answering 404 for a job ID sends
// the lookup to the next ring candidate — a job submitted during its
// owner's downtime lives on a successor, and polling through the gateway
// still finds it. When no shard knows the ID, the 404 is the answer.
func TestGatewayJobLookupWalksRing(t *testing.T) {
	fc := newFakeCluster(t, 2)
	g, srv := newTestGateway(t, fc, singleAttempt())

	const id = "f00dfeedf00dfeedf00dfeedf00dfeed"
	rec := serve.JobRecord{ID: id, Kind: serve.JobKindSweep, Tenant: "default",
		State: serve.JobDone, TotalCells: 1, DoneCells: 1, CreatedAtMs: 42}
	order := g.Ring().Successors(id)
	owner, successor := g.shards[order[0]].name, g.shards[order[1]].name
	fc.setRole(owner, jobShard(nil)) // healthy, but does not hold the job
	fc.setRole(successor, jobShard(map[string]serve.JobRecord{id: rec}))

	resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	raw := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job lookup got %d %q, want the successor's record", resp.StatusCode, raw)
	}
	var jr serve.JobResponse
	if err := json.Unmarshal([]byte(raw), &jr); err != nil || jr.Job.ID != id {
		t.Fatalf("job lookup answered %s", raw)
	}
	if got := resp.Header.Get(serve.ShardHeader); got != successor {
		t.Fatalf("job served by %s, want the successor %s", got, successor)
	}
	// The walk is not a failover: the owner answered, precisely, 404.
	if got := g.Registry().Snapshot().Get("gw.failovers"); got != 0 {
		t.Fatalf("gw.failovers = %d after a 404 walk, want 0", got)
	}

	resp, err = http.Get(srv.URL + "/v1/jobs/aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa")
	if err != nil {
		t.Fatal(err)
	}
	raw = readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(raw, "job_not_found") {
		t.Fatalf("unknown job got %d %q, want 404 job_not_found", resp.StatusCode, raw)
	}
}

// TestGatewayJobsListMerges: GET /v1/jobs at the gateway is every shard's
// listing merged oldest-first, duplicate IDs collapsed.
func TestGatewayJobsListMerges(t *testing.T) {
	fc := newFakeCluster(t, 2)
	g, srv := newTestGateway(t, fc, singleAttempt())

	shared := serve.JobRecord{ID: "cc", Kind: serve.JobKindSweep, State: serve.JobQueued, CreatedAtMs: 30}
	fc.setRole(fc.urls[0], jobShard(map[string]serve.JobRecord{
		"bb": {ID: "bb", Kind: serve.JobKindSweep, State: serve.JobDone, CreatedAtMs: 20},
		"cc": shared,
	}))
	fc.setRole(fc.urls[1], jobShard(map[string]serve.JobRecord{
		"aa": {ID: "aa", Kind: serve.JobKindArena, State: serve.JobRunning, CreatedAtMs: 10},
		"cc": shared,
	}))
	_ = g

	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	raw := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job list got %d %q", resp.StatusCode, raw)
	}
	var jl serve.JobsResponse
	if err := json.Unmarshal([]byte(raw), &jl); err != nil {
		t.Fatalf("decoding job list: %v\n%s", err, raw)
	}
	var ids []string
	for _, rec := range jl.Jobs {
		ids = append(ids, rec.ID)
	}
	if got := strings.Join(ids, ","); got != "aa,bb,cc" {
		t.Fatalf("merged listing = %s, want aa,bb,cc (oldest-first, deduplicated)", got)
	}
}

// TestGatewayRollupCarriesTenantSeries: the cluster metrics rollup passes
// per-tenant serving series through with shard labels, so one scrape shows
// every tenant's traffic on every shard.
func TestGatewayRollupCarriesTenantSeries(t *testing.T) {
	fc := newFakeCluster(t, 2)
	for i, u := range fc.urls {
		i := i
		fc.setRole(u, func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/metrics" {
				fail(http.StatusInternalServerError, "unexpected_path")(w, r)
				return
			}
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			fmt.Fprintf(w, "# TYPE tcord_serve_tenant_alpha_requests counter\ntcord_serve_tenant_alpha_requests %d\n", 10+i)
		})
	}
	_, srv := newTestGateway(t, fc, singleAttempt())

	resp, err := http.Get(srv.URL + "/v1/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollup got %d %q", resp.StatusCode, raw)
	}
	for i := range fc.urls {
		want := fmt.Sprintf("tcord_serve_tenant_alpha_requests{shard=\"shard-%d\"} %d", i, 10+i)
		if !strings.Contains(raw, want) {
			t.Fatalf("rollup is missing %q:\n%s", want, raw)
		}
	}
	if !strings.Contains(raw, `tcord_serve_tenant_alpha_requests{shard="fleet"} 21`) {
		t.Fatalf("rollup is missing the fleet aggregate of the per-tenant series:\n%s", raw)
	}
}

// TestGatewayTenantRejectionPassesThrough: a shard's 4xx is the request's
// own fault — every shard would refuse it — so an unknown credential costs
// exactly one upstream attempt and no failover, and the shard's 401 reaches
// the caller byte for byte. A 429 is the exception: a full queue on one
// shard says nothing about the next, so it still fails over.
func TestGatewayTenantRejectionPassesThrough(t *testing.T) {
	cases := []struct {
		name          string
		tenant        string
		refusal       http.HandlerFunc // the owner's answer; successors give it to tenant callers
		wantStatus    int
		wantAttempts  int64 // 0 = not asserted
		wantFailovers int64
	}{
		{"unknown tenant", "key-unknown", fail(http.StatusUnauthorized, "unknown_tenant"), http.StatusUnauthorized, 1, 0},
		{"queue full", "", fail(http.StatusTooManyRequests, "queue_full"), http.StatusOK, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fc := newFakeCluster(t, 3)
			g, srv := newTestGateway(t, fc, singleAttempt())
			order := ownerOf(t, g, testSim)
			fc.setRole(order[0], tc.refusal)
			for _, u := range order[1:] {
				fc.setRole(u, func(w http.ResponseWriter, r *http.Request) {
					if r.Header.Get(serve.TenantHeader) != "" {
						tc.refusal(w, r) // every shard refuses an unknown credential
						return
					}
					answer("{\"from\":\"successor\"}\n", "miss")(w, r)
				})
			}

			resp := postSimAs(t, srv.URL, testSim, tc.tenant, "req-4xx")
			body := readBody(t, resp)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d %q, want %d", resp.StatusCode, body, tc.wantStatus)
			}
			snap := g.Registry().Snapshot()
			if got := snap.Get("gw.failovers"); got != tc.wantFailovers {
				t.Errorf("gw.failovers = %d, want %d", got, tc.wantFailovers)
			}
			if tc.wantAttempts > 0 {
				var attempts int64
				for i := range fc.urls {
					attempts += snap.Get(fmt.Sprintf("gw.shard.%d.attempts", i))
				}
				if attempts != tc.wantAttempts {
					t.Errorf("%d upstream attempts, want %d", attempts, tc.wantAttempts)
				}
				shardBody := httptest.NewRecorder()
				tc.refusal(shardBody, httptest.NewRequest(http.MethodPost, "/v1/simulate", nil))
				if body != shardBody.Body.String() {
					t.Errorf("gateway body %q, want the shard's %q", body, shardBody.Body.String())
				}
			}
		})
	}
}

// Package client is the typed Go client of the tcord simulation service.
// It speaks the same request/response types the server defines in
// internal/serve, so a program can move a workload between a direct library
// call, an in-process serve.Server and a remote daemon without changing
// shapes. The facade re-exports it as tcor.ServiceClient.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"tcor/internal/arena"
	"tcor/internal/buildinfo"
	"tcor/internal/resilience"
	"tcor/internal/serve"
	"tcor/internal/stats"
)

// Client talks to one tcord server. The zero value is not usable; call New.
type Client struct {
	base   string
	http   *http.Client
	tenant string // credential sent as serve.TenantHeader ("" = anonymous)

	retry   *resilience.RetryPolicy // nil = single attempt (the default)
	breaker *resilience.Breaker     // nil = no client-side breaker

	attempts *stats.Counter   // requests issued, retries included
	retries  *stats.Counter   // re-issues after a retryable failure
	giveups  *stats.Counter   // calls that exhausted their retry budget
	delay    *stats.Histogram // backoff slept per scheduled retry, ns
}

// Option configures a Client.
type Option func(*Client)

// WithRetry makes every idempotent call retry transient failures (transport
// errors, 429s, 5xxs) under p: capped exponential backoff with full jitter,
// honoring the server's Retry-After hint and the call's context deadline.
// The policy's Retryable and RetryAfter classifiers are supplied by the
// client; setting them on p has no effect. Retries are off without this
// option — the historical single-attempt behavior.
func WithRetry(p resilience.RetryPolicy) Option {
	return func(c *Client) { c.retry = &p }
}

// WithBreaker adds a client-side circuit breaker: repeated transport
// failures or 5xxs open it, and while open, calls fail fast with an error
// matching resilience.ErrOpen instead of hammering a down server. Combined
// with WithRetry, an open-breaker rejection is itself retryable — the retry
// loop waits out the cooldown.
func WithBreaker(cfg resilience.BreakerConfig) Option {
	return func(c *Client) { c.breaker = resilience.NewBreaker(cfg) }
}

// WithTenant authenticates every call as the tenant owning key: the
// credential rides serve.TenantHeader on each attempt — retries, hedges and
// gateway failovers included — so quota, fair-share weight and cache
// accounting follow the caller wherever the request lands. A per-call
// credential placed on the context with serve.ContextWithTenantKey takes
// precedence; the empty key leaves the client anonymous.
func WithTenant(key string) Option {
	return func(c *Client) { c.tenant = key }
}

// WithMetrics meters the client's retry behavior into reg:
// client.attempts, client.retries, client.giveups and the
// client.retry.delay histogram.
func WithMetrics(reg *stats.Registry) Option {
	return WithMetricsPrefix(reg, "client")
}

// WithMetricsPrefix is WithMetrics under a caller-chosen metric prefix
// ("<prefix>.attempts" and friends), so several clients — the cluster
// gateway keeps one per shard — can meter into one registry without
// aliasing each other's counters.
func WithMetricsPrefix(reg *stats.Registry, prefix string) Option {
	return func(c *Client) {
		c.attempts = reg.Counter(prefix + ".attempts")
		c.retries = reg.Counter(prefix + ".retries")
		c.giveups = reg.Counter(prefix + ".giveups")
		c.delay = reg.Histogram(prefix + ".retry.delay")
	}
}

// New returns a client for the server at baseURL (e.g. "http://127.0.0.1:8344").
// httpClient may be nil for http.DefaultClient; pass a client with a Timeout
// (or use per-call contexts) in production.
func New(baseURL string, httpClient *http.Client, opts ...Option) *Client {
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{base: baseURL, http: httpClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BaseURL returns the server address the client was built with, trailing
// slashes trimmed — the cluster gateway uses it to name shards in logs and
// errors.
func (c *Client) BaseURL() string { return c.base }

// APIError is a non-2xx response, carrying the server's machine-readable
// code, the correlation ID echoed in X-Request-Id (greppable in the
// daemon's access log) and the parsed Retry-After hint when the server sent
// one.
type APIError struct {
	Status    int
	Code      string
	Message   string
	RequestID string
	// RetryAfter is the server's parsed Retry-After hint; meaningful only
	// when HasRetryAfter is true. The pair distinguishes "no hint" from an
	// explicit zero-second hint.
	RetryAfter    time.Duration
	HasRetryAfter bool
}

// Error implements error.
func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("tcord: %s (HTTP %d, %s, request %s)", e.Message, e.Status, e.Code, e.RequestID)
	}
	return fmt.Sprintf("tcord: %s (HTTP %d, %s)", e.Message, e.Status, e.Code)
}

// IsRetryable reports whether the request can be retried as-is after
// waiting. Admission rejections (429), drain/breaker refusals (503) and
// transient server-side failures (500, 502, 504) are; 4xx are not. The
// service is deterministic — a request that genuinely cannot succeed is
// rejected with a 4xx, so a 5xx always means "the path, not the request".
func (e *APIError) IsRetryable() bool {
	switch e.Status {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// retryable classifies any error from one attempt: APIErrors answer for
// themselves; everything else — an open client breaker worth waiting out, a
// transport-level failure — retries. Context errors never reach here (the
// retry loop returns them before classifying).
func retryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.IsRetryable()
	}
	return true
}

// retryAfterHint surfaces the server's Retry-After (or an open breaker's
// cooldown remainder) to the retry policy.
func retryAfterHint(err error) (time.Duration, bool) {
	var ae *APIError
	if errors.As(err, &ae) && ae.HasRetryAfter {
		return ae.RetryAfter, true
	}
	var oe *resilience.OpenError
	if errors.As(err, &oe) && oe.RetryIn > 0 {
		return oe.RetryIn, true
	}
	return 0, false
}

// breakerOutcome classifies one attempt's result for the client breaker:
// transport errors and 5xxs are path failures; 4xx mean the server is
// healthy enough to reject precisely; 429s and cancellations are neutral.
func breakerOutcome(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return resilience.Ignore
	}
	var ae *APIError
	if errors.As(err, &ae) {
		switch {
		case ae.Status == http.StatusTooManyRequests:
			return resilience.Ignore
		case ae.Status < 500:
			return nil
		}
	}
	return err
}

// do issues one logical request — a single attempt without WithRetry, a
// budgeted retry loop with it — through the client breaker when configured.
// extra headers (nil for none) are set on every attempt.
func (c *Client) do(ctx context.Context, method, path string, body []byte, extra http.Header) ([]byte, http.Header, error) {
	data, hdr, _, err := c.doFull(ctx, method, path, body, extra)
	return data, hdr, err
}

// doFull is do also reporting the HTTP status of the final attempt — the
// job-submission path distinguishes 202 (created) from 200 (idempotent
// resubmission), both of which are successes.
func (c *Client) doFull(ctx context.Context, method, path string, body []byte, extra http.Header) ([]byte, http.Header, int, error) {
	if c.retry == nil {
		return c.doOnce(ctx, method, path, body, extra)
	}
	p := *c.retry
	p.Retryable = retryable
	p.RetryAfter = retryAfterHint
	userHook := c.retry.OnRetry
	p.OnRetry = func(attempt int, delay time.Duration, err error) {
		c.retries.Inc()
		c.delay.Observe(int64(delay))
		if userHook != nil {
			userHook(attempt, delay, err)
		}
	}
	type reply struct {
		data   []byte
		hdr    http.Header
		status int
	}
	r, err := resilience.Do(ctx, p, func(ctx context.Context) (reply, error) {
		data, hdr, status, err := c.doOnce(ctx, method, path, body, extra)
		return reply{data, hdr, status}, err
	})
	if err != nil {
		c.giveups.Inc()
	}
	return r.data, r.hdr, r.status, err
}

// doOnce issues one HTTP request and decodes error envelopes.
func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, extra http.Header) ([]byte, http.Header, int, error) {
	done, allowErr := c.breaker.Allow()
	if allowErr != nil {
		return nil, nil, 0, allowErr
	}
	committed := false
	defer func() {
		if !committed {
			done(errors.New("client: attempt panicked"))
		}
	}()
	data, hdr, status, err := c.attempt(ctx, method, path, body, extra)
	committed = true
	done(breakerOutcome(err))
	return data, hdr, status, err
}

// attempt is one wire round trip.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, extra http.Header) ([]byte, http.Header, int, error) {
	c.attempts.Inc()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range extra {
		req.Header[k] = vs
	}
	// Forward the caller's correlation ID so a request proxied through the
	// cluster gateway is greppable under one ID in every shard's log.
	if id := serve.RequestIDFrom(ctx); id != "" {
		req.Header.Set(serve.RequestIDHeader, id)
	}
	// The tenant credential is re-applied on every attempt, so it survives
	// retries the same way the request ID does. A context-scoped credential
	// (the gateway forwarding its caller's identity) outranks the client's.
	if key := serve.TenantKeyFrom(ctx); key != "" {
		req.Header.Set(serve.TenantHeader, key)
	} else if c.tenant != "" {
		req.Header.Set(serve.TenantHeader, c.tenant)
	}
	// Propagate the active span's trace identity: the receiving daemon's
	// middleware joins this trace and links its root span back to the span
	// that issued the call. With tracing off the context is invalid and
	// nothing is injected.
	stats.InjectTraceparent(req.Header, stats.SpanFrom(ctx).Context())
	resp, err := c.http.Do(req)
	if err != nil {
		// http.Client wraps the context error in a *url.Error; unwrap-aware
		// callers (the retry loop) need errors.Is to see through it, which
		// url.Error supports.
		return nil, nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.Header, resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		ae := &APIError{Status: resp.StatusCode,
			RequestID: resp.Header.Get(serve.RequestIDHeader)}
		var envelope serve.ErrorBody
		if json.Unmarshal(data, &envelope) == nil && envelope.Error.Code != "" {
			ae.Code = envelope.Error.Code
			ae.Message = envelope.Error.Message
		} else {
			ae.Code = "http_error"
			ae.Message = http.StatusText(resp.StatusCode)
		}
		if hint := resp.Header.Get("Retry-After"); hint != "" {
			if secs, err := strconv.Atoi(hint); err == nil && secs >= 0 {
				ae.RetryAfter = time.Duration(secs) * time.Second
				ae.HasRetryAfter = true
			}
		}
		return nil, resp.Header, resp.StatusCode, ae
	}
	return data, resp.Header, resp.StatusCode, nil
}

// Healthy reports whether the server process answers at all.
func (c *Client) Healthy(ctx context.Context) error {
	_, _, err := c.do(ctx, http.MethodGet, "/healthz", nil, nil)
	return err
}

// Ready reports whether the server accepts new simulations (false while
// draining or degraded behind an open breaker).
func (c *Client) Ready(ctx context.Context) error {
	_, _, err := c.do(ctx, http.MethodGet, "/readyz", nil, nil)
	return err
}

// Version fetches the server's build identity.
func (c *Client) Version(ctx context.Context) (buildinfo.Info, error) {
	data, _, err := c.do(ctx, http.MethodGet, "/v1/version", nil, nil)
	if err != nil {
		return buildinfo.Info{}, err
	}
	var info buildinfo.Info
	return info, json.Unmarshal(data, &info)
}

// Benchmarks lists the server's built-in suite in paper order.
func (c *Client) Benchmarks(ctx context.Context) ([]serve.BenchmarkInfo, error) {
	data, _, err := c.do(ctx, http.MethodGet, "/v1/benchmarks", nil, nil)
	if err != nil {
		return nil, err
	}
	var out []serve.BenchmarkInfo
	return out, json.Unmarshal(data, &out)
}

// Stats fetches the serving-layer metrics snapshot (queue depth, cache
// hit/miss/eviction counts, in-flight gauge, rejections).
func (c *Client) Stats(ctx context.Context) (map[string]int64, error) {
	data, _, err := c.do(ctx, http.MethodGet, "/v1/stats", nil, nil)
	if err != nil {
		return nil, err
	}
	var out map[string]int64
	return out, json.Unmarshal(data, &out)
}

// MetricsText fetches the server's Prometheus exposition page verbatim.
// The cluster gateway's /v1/cluster/metrics rollup scrapes shards with it.
func (c *Client) MetricsText(ctx context.Context) ([]byte, error) {
	data, _, err := c.do(ctx, http.MethodGet, "/metrics", nil, nil)
	return data, err
}

// TraceSpans pulls the server's recorded spans for one trace ID — the
// /debug/trace?trace= path the gateway's trace collector stitches from.
func (c *Client) TraceSpans(ctx context.Context, id stats.TraceID) (stats.TraceSet, error) {
	data, _, err := c.do(ctx, http.MethodGet, "/debug/trace?trace="+id.String(), nil, nil)
	if err != nil {
		return stats.TraceSet{}, err
	}
	var ts stats.TraceSet
	return ts, json.Unmarshal(data, &ts)
}

// CacheOutcome says how a simulation was served: "hit" (result cache),
// "coalesced" (collapsed onto a concurrent identical request) or "miss"
// (freshly simulated).
type CacheOutcome string

// Simulate runs one simulation, returning the decoded result and how the
// cache served it. The raw response body is available via SimulateRaw.
func (c *Client) Simulate(ctx context.Context, req serve.SimulateRequest) (serve.RunResult, CacheOutcome, error) {
	data, how, err := c.SimulateRaw(ctx, req)
	if err != nil {
		return serve.RunResult{}, how, err
	}
	var rr serve.RunResult
	return rr, how, json.Unmarshal(data, &rr)
}

// SimulateRaw is Simulate returning the exact served bytes — the form the
// golden tests compare against a direct library call.
func (c *Client) SimulateRaw(ctx context.Context, req serve.SimulateRequest) ([]byte, CacheOutcome, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, "", err
	}
	data, hdr, err := c.do(ctx, http.MethodPost, "/v1/simulate", body, nil)
	return data, CacheOutcome(hdr.Get("X-Tcord-Cache")), err
}

// Sweep runs a batch of simulations through the server's worker pool and
// returns the decoded results in item order.
func (c *Client) Sweep(ctx context.Context, req serve.SweepRequest) ([]serve.RunResult, error) {
	runs, err := c.SweepRaw(ctx, req)
	if err != nil {
		return nil, err
	}
	out := make([]serve.RunResult, len(runs))
	for i, raw := range runs {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("tcord: decoding run %d: %w", i, err)
		}
	}
	return out, nil
}

// CacheProbe asks the server whether it already holds req's result, without
// letting it compute one: the request carries serve.CacheOnlyHeader, which
// the daemon answers from its result cache or rejects with 404 cache_miss.
// A miss is not an error — it returns (nil, "", false, nil) — so the
// cluster gateway can probe a key's owning shard before allowing a failover
// shard to simulate from scratch.
func (c *Client) CacheProbe(ctx context.Context, req serve.SimulateRequest) ([]byte, CacheOutcome, bool, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, "", false, err
	}
	extra := http.Header{serve.CacheOnlyHeader: []string{"1"}}
	data, hdr, err := c.do(ctx, http.MethodPost, "/v1/simulate", body, extra)
	if err != nil {
		var ae *APIError
		if errors.As(err, &ae) && ae.Status == http.StatusNotFound && ae.Code == "cache_miss" {
			return nil, "", false, nil
		}
		return nil, "", false, err
	}
	return data, CacheOutcome(hdr.Get("X-Tcord-Cache")), true, nil
}

// Arena runs a replacement-policy race on the server and returns the decoded
// ranked report plus how the arena cache served it.
func (c *Client) Arena(ctx context.Context, req serve.ArenaRequest) (arena.Report, CacheOutcome, error) {
	data, how, err := c.ArenaRaw(ctx, req)
	if err != nil {
		return arena.Report{}, how, err
	}
	var rep arena.Report
	return rep, how, json.Unmarshal(data, &rep)
}

// ArenaRaw is Arena returning the exact served bytes — the canonical report
// encoding, byte-identical to `paperfig -arena -frames 1` over the same
// roster, suite and capacity. The cluster gateway proxies with it.
func (c *Client) ArenaRaw(ctx context.Context, req serve.ArenaRequest) ([]byte, CacheOutcome, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, "", err
	}
	data, hdr, err := c.do(ctx, http.MethodPost, "/v1/arena", body, nil)
	return data, CacheOutcome(hdr.Get("X-Tcord-Cache")), err
}

// SweepAsync submits a sweep as a durable background job and returns its
// record immediately. Poll Job (or call WaitJob) until State is terminal,
// then fetch JobResult — the stored bytes are identical to what the
// synchronous Sweep response would have been. Resubmitting the same body
// under the same credential returns the same job.
func (c *Client) SweepAsync(ctx context.Context, req serve.SweepRequest) (serve.JobRecord, error) {
	return c.submitAsync(ctx, "/v1/sweep?async=1", req)
}

// ArenaAsync submits an arena race as a durable background job; see
// SweepAsync for the lifecycle.
func (c *Client) ArenaAsync(ctx context.Context, req serve.ArenaRequest) (serve.JobRecord, error) {
	return c.submitAsync(ctx, "/v1/arena?async=1", req)
}

func (c *Client) submitAsync(ctx context.Context, path string, req any) (serve.JobRecord, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return serve.JobRecord{}, err
	}
	data, _, err := c.do(ctx, http.MethodPost, path, body, nil)
	if err != nil {
		return serve.JobRecord{}, err
	}
	var jr serve.JobResponse
	return jr.Job, json.Unmarshal(data, &jr)
}

// Job fetches one job's current record.
func (c *Client) Job(ctx context.Context, id string) (serve.JobRecord, error) {
	data, _, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, nil)
	if err != nil {
		return serve.JobRecord{}, err
	}
	var jr serve.JobResponse
	return jr.Job, json.Unmarshal(data, &jr)
}

// Jobs lists the calling tenant's jobs, oldest first.
func (c *Client) Jobs(ctx context.Context) ([]serve.JobRecord, error) {
	data, _, err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, nil)
	if err != nil {
		return nil, err
	}
	var jr serve.JobsResponse
	return jr.Jobs, json.Unmarshal(data, &jr)
}

// CancelJob cancels a queued or running job and returns its record. A job
// already in a terminal state is a 409 APIError.
func (c *Client) CancelJob(ctx context.Context, id string) (serve.JobRecord, error) {
	data, _, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
	if err != nil {
		return serve.JobRecord{}, err
	}
	var jr serve.JobResponse
	return jr.Job, json.Unmarshal(data, &jr)
}

// JobResult fetches a done job's stored result bytes. A job that is not
// done yet — or failed, or was cancelled — is a 409 APIError.
func (c *Client) JobResult(ctx context.Context, id string) ([]byte, error) {
	data, _, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, nil)
	return data, err
}

// SubmitJobRaw posts one ?async=1 submission body verbatim to path (e.g.
// "/v1/sweep?async=1") and returns the server's exact response bytes plus
// the HTTP status — 202 for a freshly created job, 200 for an idempotent
// resubmission. The cluster gateway forwards raw bodies with it so the
// shard's JobID, computed over the exact bytes it receives, matches the
// content address the gateway routed by.
func (c *Client) SubmitJobRaw(ctx context.Context, path string, body []byte) ([]byte, int, error) {
	data, _, status, err := c.doFull(ctx, http.MethodPost, path, body, nil)
	return data, status, err
}

// JobRaw fetches one job's record as the server's exact served bytes.
func (c *Client) JobRaw(ctx context.Context, id string) ([]byte, error) {
	data, _, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, nil)
	return data, err
}

// CancelJobRaw cancels a job and returns the server's exact response bytes.
func (c *Client) CancelJobRaw(ctx context.Context, id string) ([]byte, error) {
	data, _, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
	return data, err
}

// WaitJob polls a job until it reaches a terminal state (or ctx ends),
// returning the final record. poll <= 0 defaults to 200ms.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (serve.JobRecord, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		rec, err := c.Job(ctx, id)
		if err != nil {
			return rec, err
		}
		switch rec.State {
		case serve.JobDone, serve.JobFailed, serve.JobCancelled:
			return rec, nil
		}
		select {
		case <-ctx.Done():
			return rec, ctx.Err()
		case <-t.C:
		}
	}
}

// SweepRaw is Sweep returning each run's exact served bytes, undecoded.
// The cluster gateway merges shard sub-sweeps with these so the assembled
// response is byte-identical to a single node serving the whole sweep.
func (c *Client) SweepRaw(ctx context.Context, req serve.SweepRequest) ([]json.RawMessage, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	data, _, err := c.do(ctx, http.MethodPost, "/v1/sweep", body, nil)
	if err != nil {
		return nil, err
	}
	var resp serve.SweepResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, err
	}
	return resp.Runs, nil
}

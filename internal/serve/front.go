package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"tcor/internal/buildinfo"
	"tcor/internal/stats"
)

// maxTimeout clamps the deadline a request may ask for, on both tiers.
const maxTimeout = 10 * time.Minute

// Front is the tier-neutral HTTP shell. A simulation daemon (Server) and a
// cluster gateway each mount one, so the two tiers share a single request
// wrapper, error envelope, body reader, deadline clamp, plumbing endpoints
// and lifecycle: a gateway answers malformed input exactly as a daemon
// would because both answer it with the same code.
type Front struct {
	cfg       FrontConfig
	tracer    *stats.Tracer // nil when tracing is disabled
	requests  *stats.Counter
	responses [6]*stats.Counter // by status class; nil = not metered
	panics    *stats.Counter
	latency   *stats.Histogram // whole-request wall time, ns
	draining  atomic.Bool
	httpSrv   *http.Server
}

// FrontConfig is what the tier mounting a Front supplies.
type FrontConfig struct {
	// Tier names the process in drain rejections ("server", "gateway").
	Tier string
	// Category is the root span's category ("serve", "cluster").
	Category string
	// Metrics prefixes the request counter, the per-status-class response
	// counters and the latency histogram (<Metrics>.requests,
	// <Metrics>.responses.<N>xx, <Metrics>.latency). Classes lists the
	// metered status classes; Panics names the panic counter.
	Metrics string
	Classes []int
	Panics  string

	Registry *stats.Registry
	Logger   *slog.Logger
	// TraceCapacity bounds the span trace behind /debug/trace (0 = 4096
	// spans, negative = tracing disabled).
	TraceCapacity int

	// MaxBodyBytes bounds request bodies, 413 beyond (0 = 1 MiB).
	// DefaultTimeout is the deadline of a request that carries none
	// (0 = 60s). Request-supplied deadlines are clamped to maxTimeout.
	MaxBodyBytes   int64
	DefaultTimeout time.Duration

	// Enter is the tier's own layer. It runs inside the panic recovery once
	// the request ID, trace context and root span are in the request's
	// context, and returns the request the handler sees — nil after it
	// answered the request itself — plus a finish func (may be nil) the
	// shell calls once the response is done, panics included, for the
	// tier's extra access-log attributes.
	Enter func(w http.ResponseWriter, r *http.Request) (*http.Request, func() []slog.Attr)
	// Classify maps an error that is neither a front error (NewError,
	// BadRequest, MethodNotAllowed) nor a context error onto a front
	// error; a nil result renders 500 "internal".
	Classify func(error) error
	// RetryAfter sizes the Retry-After hint of a 429 that carries none
	// (nil = no hint).
	RetryAfter func() time.Duration
	// Degraded reports why the tier cannot serve ("" = ready); /readyz
	// answers it as 503 "degraded: <reason>".
	Degraded func() string
}

// NewFront builds the shell and registers its meters on cfg.Registry.
func NewFront(cfg FrontConfig) *Front {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.TraceCapacity == 0 {
		cfg.TraceCapacity = 4096
	}
	reg := cfg.Registry
	f := &Front{
		cfg:      cfg,
		tracer:   stats.NewTracer(max(cfg.TraceCapacity, 0)),
		requests: reg.Counter(cfg.Metrics + ".requests"),
		panics:   reg.Counter(cfg.Panics),
		latency:  reg.Histogram(cfg.Metrics + ".latency"),
	}
	for _, c := range cfg.Classes {
		f.responses[c] = reg.Counter(cfg.Metrics + ".responses." + strconv.Itoa(c) + "xx")
	}
	// Buffer overflow in the bounded tracer is silent at the Tracer level;
	// publish it so a fleet scrape can see span loss per process.
	f.tracer.MeterDropped(reg.Counter("trace.dropped"))
	return f
}

// Tracer returns the process's span tracer (nil when tracing is disabled).
func (f *Front) Tracer() *stats.Tracer { return f.tracer }

// Mount registers the plumbing endpoints on mux: /healthz, /readyz,
// /v1/version, /v1/benchmarks, /v1/stats, /metrics and /debug/trace.
func (f *Front) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n") //nolint:errcheck // client gone is its own problem
	})
	mux.HandleFunc("/readyz", f.handleReadyz)
	mux.HandleFunc("/v1/version", f.GetJSON(func(*http.Request) (any, error) { return buildinfo.Get(), nil }))
	// Benchmarks is shared, so the listing is byte-identical on every tier.
	mux.HandleFunc("/v1/benchmarks", f.GetJSON(func(*http.Request) (any, error) { return Benchmarks(), nil }))
	mux.HandleFunc("/v1/stats", f.GetJSON(func(*http.Request) (any, error) { return f.cfg.Registry.Snapshot(), nil }))
	mux.Handle("/metrics", stats.MetricsHandler("tcord", f.cfg.Registry))
	mux.HandleFunc("/debug/trace", f.handleDebugTrace)
}

// Handler returns h behind the shell: it mints or echoes the request ID,
// joins the caller's trace (or roots one) and echoes its traceparent, opens
// the root http.request span, runs the tier's Enter layer, isolates panics
// (500 "internal_panic"; the process keeps serving), meters requests,
// status classes and latency, and writes one access-log line per request.
func (f *Front) Handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		f.requests.Inc()

		id := r.Header.Get(RequestIDHeader)
		if id == "" || len(id) > maxRequestIDLen {
			id = MintRequestID()
		}
		w.Header().Set(RequestIDHeader, id)

		// Join the caller's trace when a valid traceparent arrived (a
		// gateway or the typed client injects one per hop); otherwise this
		// process is the trace root. The response echoes the request's own
		// trace context so callers can fetch the stitched trace of a
		// request they just made.
		var sp *stats.Span
		if parent, ok := stats.ExtractTraceparent(r.Header); ok {
			sp = f.tracer.BeginRemote("http.request", f.cfg.Category, parent)
		} else {
			sp = f.tracer.Begin("http.request", f.cfg.Category)
		}
		stats.InjectTraceparent(w.Header(), sp.Context())
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		sp.SetAttr("requestId", id)

		ctx := ContextWithRequestID(r.Context(), id)
		ctx = stats.ContextWithTracer(ctx, f.tracer)
		ctx = stats.ContextWithSpan(ctx, sp)
		r = r.WithContext(ctx)

		rec := &statusRecorder{ResponseWriter: w}
		var finish func() []slog.Attr
		defer func() {
			if p := recover(); p != nil {
				f.panics.Inc()
				f.cfg.Logger.Error("panic", "id", id, "method", r.Method,
					"path", r.URL.Path, "panic", fmt.Sprint(p))
				if rec.status == 0 {
					f.WriteError(rec, NewError(http.StatusInternalServerError,
						"internal_panic", "internal error", 0))
				}
			}
			if rec.status == 0 {
				// The handler wrote nothing (e.g. a body-less 200).
				rec.status = http.StatusOK
			}
			if c := rec.status / 100; c < len(f.responses) && f.responses[c] != nil {
				f.responses[c].Inc()
			}
			dur := time.Since(t0)
			f.latency.Observe(int64(dur))
			attrs := []slog.Attr{
				slog.String("id", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.status),
				slog.Duration("dur", dur),
			}
			if finish != nil {
				attrs = append(attrs, finish()...)
			}
			sp.SetAttr("status", strconv.Itoa(rec.status))
			sp.End()
			f.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "request", attrs...)
		}()

		var next *http.Request
		if next, finish = f.cfg.Enter(rec, r); next == nil {
			return
		}
		h.ServeHTTP(rec, next)
	})
}

// statusRecorder captures the response status for the shell's meters.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Start listens on addr (host:port; ":0" picks a free port) and serves h
// in the background, returning the bound address. Pair with Shutdown.
func (f *Front) Start(addr string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	f.httpSrv = &http.Server{Handler: h}
	go f.httpSrv.Serve(ln) //nolint:errcheck // Serve always returns ErrServerClosed after Shutdown
	f.cfg.Logger.Info("listening", "addr", ln.Addr().String())
	return ln.Addr().String(), nil
}

// Shutdown flips readiness to 503 and refuses new simulations, then waits
// for in-flight requests to finish; ctx bounds the wait.
func (f *Front) Shutdown(ctx context.Context) error {
	f.draining.Store(true)
	f.cfg.Logger.Info("draining")
	if f.httpSrv == nil {
		return nil
	}
	return f.httpSrv.Shutdown(ctx)
}

// Draining reports whether Shutdown has begun.
func (f *Front) Draining() bool { return f.draining.Load() }

func (f *Front) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	msg, status := "ready\n", http.StatusOK
	if f.draining.Load() {
		msg, status = "draining\n", http.StatusServiceUnavailable
	} else if why := f.cfg.Degraded(); why != "" {
		msg, status = "degraded: "+why+"\n", http.StatusServiceUnavailable
	}
	w.WriteHeader(status)
	io.WriteString(w, msg) //nolint:errcheck // client gone is its own problem
}

// GetJSON is a GET-only endpoint answering the value v derives from the
// request as JSON, or v's error as the error envelope.
func (f *Front) GetJSON(v func(*http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			f.WriteError(w, MethodNotAllowed(http.MethodGet))
			return
		}
		out, err := v(r)
		if err != nil {
			f.WriteError(w, err)
			return
		}
		f.WriteJSON(w, out)
	}
}

// handleDebugTrace serves the process's span trace. Without parameters it
// renders the whole buffer as Chrome trace_event JSON (chrome://tracing,
// Perfetto). With ?trace=<32-hex-id> it serves the raw span records of that
// one trace as a stats.TraceSet — the pull path the cluster's trace
// collector stitches from. With tracing disabled both shapes are empty
// rather than errors, so scrapers need no config knowledge.
func (f *Front) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		f.WriteError(w, MethodNotAllowed(http.MethodGet))
		return
	}
	if q := r.URL.Query().Get("trace"); q != "" {
		id, err := stats.ParseTraceID(q)
		if err != nil {
			f.WriteError(w, BadRequest("trace parameter: %v", err))
			return
		}
		f.WriteJSON(w, f.tracer.TraceSet("", id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := f.tracer.WriteChromeTrace(w); err != nil {
		f.cfg.Logger.Error("trace export", "err", err)
	}
}

// BeginSim is the front door of the simulation endpoints: method check,
// drain check, bounded body read, strict decode into into. It returns the
// raw body (the async job path content-addresses it) and false after
// writing the error response itself.
func (f *Front) BeginSim(w http.ResponseWriter, r *http.Request, into any) ([]byte, bool) {
	if r.Method != http.MethodPost {
		f.WriteError(w, MethodNotAllowed(http.MethodPost))
		return nil, false
	}
	if f.draining.Load() {
		f.WriteError(w, NewError(http.StatusServiceUnavailable, "draining",
			f.cfg.Tier+" is draining; not accepting new simulations", 0))
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, f.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			f.WriteError(w, NewError(http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("request body exceeds %d bytes", f.cfg.MaxBodyBytes), 0))
		} else {
			f.WriteError(w, BadRequest("reading request body: %v", err))
		}
		return nil, false
	}
	if err := decodeStrict(body, into); err != nil {
		f.WriteError(w, err)
		return nil, false
	}
	return body, true
}

// RequestContext derives the per-request deadline: the request-supplied
// timeout clamped to maxTimeout, falling back to DefaultTimeout.
func (f *Front) RequestContext(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	d := f.cfg.DefaultTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	if d > maxTimeout {
		d = maxTimeout
	}
	return context.WithTimeout(r.Context(), d)
}

// WriteError renders any error as the JSON error envelope. Front errors
// render as built, context errors map to timeout/cancellation statuses,
// and everything else goes through the tier's Classify.
func (f *Front) WriteError(w http.ResponseWriter, err error) {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
	case errors.Is(err, context.DeadlineExceeded):
		ae = &apiError{status: http.StatusGatewayTimeout, code: "deadline_exceeded",
			msg: "request deadline exceeded"}
	case errors.Is(err, context.Canceled):
		// The client is gone; the status is for the log/metrics only.
		ae = &apiError{status: 499, code: "canceled", msg: "request canceled"}
	case !errors.As(f.cfg.Classify(err), &ae):
		ae = &apiError{status: http.StatusInternalServerError, code: "internal", msg: err.Error()}
	}
	retryAfter := ae.retryAfter
	if ae.status == http.StatusTooManyRequests && retryAfter <= 0 && f.cfg.RetryAfter != nil {
		retryAfter = f.cfg.RetryAfter()
	}
	if retryAfter > 0 {
		secs := int((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	if ae.allow != "" {
		w.Header().Set("Allow", ae.allow)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(ae.status)
	json.NewEncoder(w).Encode(ErrorBody{Error: ErrorDetail{Code: ae.code, Message: ae.msg}}) //nolint:errcheck // best-effort error body
}

// WriteJSON renders v as the JSON response body.
func (f *Front) WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		f.cfg.Logger.Error("encoding response", "err", err)
	}
}

// NewError returns an error the front renders as status with the given
// code and message, plus a Retry-After of retryAfter rounded up to whole
// seconds when positive.
func NewError(status int, code, msg string, retryAfter time.Duration) error {
	return &apiError{status: status, code: code, msg: msg, retryAfter: retryAfter}
}

// BadRequest is a 400 "invalid_request" with a formatted message.
func BadRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, code: "invalid_request",
		msg: fmt.Sprintf(format, args...)}
}

// MethodNotAllowed is a 405 naming the allowed methods in its message and
// in the response's Allow header.
func MethodNotAllowed(methods ...string) error {
	return &apiError{status: http.StatusMethodNotAllowed, code: "method_not_allowed",
		msg: "use " + strings.Join(methods, " or "), allow: strings.Join(methods, ", ")}
}

// Package stats is the simulator's observability layer: a typed, atomic
// counter/gauge/histogram registry shared by every level of the memory
// hierarchy, a named-invariant checker that cross-validates the counters, a
// bounded event-trace ring for debugging replacement decisions, a bounded
// span tracer with Chrome trace_event export, Prometheus text exposition,
// and the pprof debug server behind the binaries' -debug/-http flags.
//
// The package holds no process-wide state: every process serves the
// registry and tracer it owns. The daemon serves them on its API port
// (/v1/stats, /metrics, /debug/trace); the CLIs serve theirs on the same
// paths next to pprof (ServeDebug).
//
// The registry is race-clean by construction — counters and gauges are
// single atomic words, and the name table is mutex-protected — so
// concurrent simulations driven by the experiments.Sweep worker pool can
// publish into one registry without synchronizing with each other. All
// exported views (Snapshot, Prometheus) are deterministic: names are
// emitted in sorted order.
package stats

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically written atomic int64 metric. The zero value is
// ready to use; all methods are nil-safe so instrumentation points can be
// left unconditional while the registry wiring stays optional.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Store overwrites the counter (levels that accumulate into their own Stats
// structs publish final values with Store).
func (c *Counter) Store(n int64) {
	if c != nil {
		c.v.Store(n)
	}
}

// Load returns the current value (0 for a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic int64 metric that moves in both directions (queue
// depths, free-list occupancy). Nil-safe like Counter.
type Gauge struct{ v atomic.Int64 }

// Set overwrites the gauge.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Load returns the current value (0 for a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Snapshot is a point-in-time copy of every metric in a registry, keyed by
// dotted metric name. encoding/json marshals map keys in sorted order, so a
// marshalled Snapshot is schema-stable across runs.
type Snapshot map[string]int64

// Get returns the value of a metric (0 if absent).
func (s Snapshot) Get(name string) int64 { return s[name] }

// Invariant is a named consistency check over a snapshot.
type Invariant struct {
	Name  string
	Check func(Snapshot) error
}

// Violation describes one failed invariant.
type Violation struct {
	Name string
	Err  error
}

// Error implements error.
func (v Violation) Error() string { return fmt.Sprintf("invariant %s: %v", v.Name, v.Err) }

// Unwrap exposes the underlying cause.
func (v Violation) Unwrap() error { return v.Err }

// Registry is a set of named counters and gauges plus the invariants that
// relate them. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	invariants map[string]func(Snapshot) error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		invariants: make(map[string]func(Snapshot) error),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. The same *Counter is returned to every caller of the same name, so
// hierarchy levels can share counters by naming convention alone.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use. Like Counter/Gauge, the same *Histogram is returned to every
// caller of the same name.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Histograms snapshots every registered histogram, keyed by name. The
// Prometheus encoder reads buckets through this; Snapshot only carries the
// derived scalars.
func (r *Registry) Histograms() map[string]HistogramSnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]HistogramSnapshot, len(r.histograms))
	for n, h := range r.histograms {
		out[n] = h.Snapshot()
	}
	return out
}

// RegisterInvariant registers (or replaces) a named invariant. Re-publishing
// a level into the same registry therefore does not duplicate its checks.
func (r *Registry) RegisterInvariant(name string, check func(Snapshot) error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.invariants[name] = check
}

// InvariantNames returns the registered invariant names in sorted order.
func (r *Registry) InvariantNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.invariants))
	for n := range r.invariants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot copies every metric into a Snapshot. Gauges and counters share
// the namespace; registering both kinds under one name is a programming
// error and the counter wins deterministically. Histograms contribute their
// derived scalars — "<name>.count", "<name>.sum", "<name>.p50"/".p90"/".p99"
// (quantiles rounded to int64) — so the flat int64 view stays schema-stable
// while full buckets remain reachable via Histograms and the Prometheus
// encoder.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := make(Snapshot, len(r.counters)+len(r.gauges)+5*len(r.histograms))
	for n, g := range r.gauges {
		s[n] = g.Load()
	}
	for n, c := range r.counters {
		s[n] = c.Load()
	}
	for n, h := range r.histograms {
		hs := h.Snapshot()
		s[n+".count"] = hs.Count
		s[n+".sum"] = hs.Sum
		s[n+".p50"] = int64(hs.Quantile(0.50))
		s[n+".p90"] = int64(hs.Quantile(0.90))
		s[n+".p99"] = int64(hs.Quantile(0.99))
	}
	return s
}

// Check evaluates every registered invariant against one consistent
// snapshot and returns the joined violations (nil if all hold). Invariants
// run in sorted name order so the error text is deterministic.
func (r *Registry) Check() error {
	snap := r.Snapshot()
	r.mu.RLock()
	checks := make([]Invariant, 0, len(r.invariants))
	for n, f := range r.invariants {
		checks = append(checks, Invariant{Name: n, Check: f})
	}
	r.mu.RUnlock()
	sort.Slice(checks, func(i, j int) bool { return checks[i].Name < checks[j].Name })
	var errs []error
	for _, iv := range checks {
		if err := iv.Check(snap); err != nil {
			errs = append(errs, Violation{Name: iv.Name, Err: err})
		}
	}
	return errors.Join(errs...)
}

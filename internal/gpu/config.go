// Package gpu ties the substrates into the full TBR GPU model of paper
// Fig. 2 and runs whole frames of a workload through it: Geometry Pipeline
// (vertex fetch through the Vertex Cache, vertex shading), Tiling Engine
// (Polygon List Builder and Tile Fetcher through the Tile Cache), Raster
// Pipeline (rasterization, Early-Z, fragment shading with texture caches,
// blending, frame-buffer flush), the shared L2, and DRAM. It reports the
// metrics the paper evaluates: Parameter Buffer traffic at each level,
// total main-memory accesses, memory-hierarchy and total GPU energy, Tile
// Fetcher throughput and frames per second.
package gpu

import (
	"fmt"

	"tcor/internal/dram"
	"tcor/internal/geom"
	"tcor/internal/l2"
	"tcor/internal/stats"
	"tcor/internal/tcor"
	"tcor/internal/tiling"
)

// TileCacheKind selects the Tiling Engine's L1 organization.
type TileCacheKind int

const (
	// KindBaseline is the single 4-way LRU block-granularity Tile Cache of
	// §II-C with the contiguous PB-Lists layout of Fig. 3.
	KindBaseline TileCacheKind = iota
	// KindTCOR is the split Primitive List Cache + Attribute Cache of
	// §III-C with the interleaved layout of Fig. 6.
	KindTCOR
)

// String names the kind.
func (k TileCacheKind) String() string {
	if k == KindTCOR {
		return "TCOR"
	}
	return "baseline"
}

// Timing groups the latency parameters of Table I plus the microarchitental
// knobs of the throughput model.
type Timing struct {
	ClockHz  float64
	L1Cycles int // L1 hit latency
	L2Cycles int // L2 hit latency
	// MSHROverlap divides miss penalties to model overlapping in-flight
	// misses in the Tile Fetcher.
	MSHROverlap int
	// VertexInstr and geometry throughput: shader instructions per vertex.
	VertexInstr int
}

// DefaultTiming returns the Table I timing (600 MHz, 1-cycle L1s, 12-cycle
// L2, DRAM timing lives in the DRAM config).
func DefaultTiming() Timing {
	return Timing{
		ClockHz:     600e6,
		L1Cycles:    1,
		L2Cycles:    12,
		MSHROverlap: 2,
		VertexInstr: 8,
	}
}

// Config is a full-system configuration.
type Config struct {
	Screen geom.Screen
	Order  tiling.Order

	Kind TileCacheKind
	// TileCacheBytes is the total Tiling Engine L1 budget (64 KiB baseline
	// experiment, 128 KiB for the larger one). TCOR splits it 16 KiB lists
	// + remainder attributes, matching §V-B.
	TileCacheBytes int
	TileCacheWays  int

	// InterleavedLists selects the PB-Lists layout of Fig. 6 (TCOR default
	// on, baseline off; exposed separately for the ablation).
	InterleavedLists bool
	// XORIndex / WriteBypass configure the Attribute Cache (TCOR ablations).
	XORIndex    bool
	WriteBypass bool
	// L2Enhanced turns on the dead-line L2 replacement (§III-D); "TCOR
	// without L2 enhancements" in Figs. 20/21 runs with this off.
	L2Enhanced bool
	// L2TraceDepth, when positive, attaches a bounded eviction trace to the
	// L2: the last N evictions with their replacement class, set, tile and
	// write-back disposition land in Result.L2Trace. Zero disables tracing
	// (no overhead on the hot path beyond one nil check).
	L2TraceDepth int
	// Tracer, when non-nil, records frame/phase/tile spans of the run into a
	// bounded in-memory trace (export with stats.Tracer.WriteChromeTrace —
	// `tcorsim -trace out.json` on the CLI). Nil disables tracing at the cost
	// of one branch per phase; it never affects simulation results. Excluded
	// from JSON so the serving layer's content-addressed result cache ignores
	// it.
	Tracer *stats.Tracer `json:"-"`
	// TraceParent, when non-nil, parents the run's frame spans under an
	// existing span instead of minting a fresh root trace per frame — the
	// serving layer threads its per-request "simulate" span through here so
	// the simulator's phase spans join the request's distributed trace.
	// Excluded from JSON like Tracer.
	TraceParent *stats.Span `json:"-"`
	// TraceTiles additionally records one span per tile under each frame's
	// "tiles" span. At the Table I screen that is ~1500 spans per frame —
	// the right resolution for single-run analysis (`tcorsim -trace`), far
	// too noisy for a serving process's bounded trace buffer, where one
	// sweep would flood the buffer and evict the request spans a
	// distributed trace is stitched from. Opt-in for that reason.
	TraceTiles bool `json:"-"`
	// IncludeLeakage adds per-structure static energy (leakage x frame
	// cycles) to the tallies. Off by default: the paper-matching
	// calibration is dynamic-energy based, and leakage rewards the faster
	// configuration, so it is a sensitivity knob rather than part of the
	// headline numbers.
	IncludeLeakage bool

	// OutputQueueDepth is the Tile Fetcher output queue capacity in
	// primitives: the window during which Attribute Cache lines stay
	// locked before the Rasterizer consumes them.
	OutputQueueDepth int

	// TileParallel bounds the worker goroutines that pre-compute per-tile
	// raster plans within one frame (docs/MODEL.md §12). 0 or 1 runs the
	// frame serially; higher values speed the simulator up without
	// changing a single output byte — plans are pure and their access
	// streams are committed to the shared hierarchy in traversal order.
	// Excluded from JSON (like Tracer) so content-addressed result caches
	// and checkpoint fingerprints treat all parallelism levels as the same
	// simulation, which they are.
	TileParallel int `json:"-"`

	VertexCacheBytes int
	VertexCacheWays  int

	L2     l2.Config
	DRAM   dram.Config
	Timing Timing
}

// Baseline returns the paper's baseline GPU with the given Tile Cache size.
func Baseline(tileCacheBytes int) Config {
	return Config{
		Screen:           geom.DefaultScreen(),
		Order:            tiling.OrderZ,
		Kind:             KindBaseline,
		TileCacheBytes:   tileCacheBytes,
		TileCacheWays:    4,
		InterleavedLists: false,
		L2Enhanced:       false,
		OutputQueueDepth: 32,
		TileParallel:     1,
		VertexCacheBytes: 64 * 1024,
		VertexCacheWays:  4,
		L2:               l2.DefaultConfig(false),
		DRAM:             dram.DefaultConfig(),
		Timing:           DefaultTiming(),
	}
}

// TCOR returns the full TCOR configuration with the given total Tile Cache
// size.
func TCOR(tileCacheBytes int) Config {
	c := Baseline(tileCacheBytes)
	c.Kind = KindTCOR
	c.InterleavedLists = true
	c.XORIndex = true
	c.WriteBypass = true
	c.L2Enhanced = true
	c.L2 = l2.DefaultConfig(true)
	return c
}

// TCORNoL2 returns TCOR without the L2 enhancements (the middle bars of
// Figs. 20/21).
func TCORNoL2(tileCacheBytes int) Config {
	c := TCOR(tileCacheBytes)
	c.L2Enhanced = false
	c.L2 = l2.DefaultConfig(false)
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Screen.Validate(); err != nil {
		return err
	}
	if c.TileCacheBytes <= 0 {
		return fmt.Errorf("gpu: tile cache size must be positive")
	}
	// TCOR carves its fixed-size Primitive List Cache out of the budget;
	// the Attribute Cache needs at least one entry of what is left.
	if list := tcor.DefaultListCacheConfig().SizeBytes; c.Kind == KindTCOR &&
		tcor.SizeToAttrEntries(c.TileCacheBytes-list) < 1 {
		return fmt.Errorf("gpu: a TCOR tile cache must exceed its %d KiB primitive list cache, got %d bytes",
			list/1024, c.TileCacheBytes)
	}
	if c.OutputQueueDepth <= 0 {
		return fmt.Errorf("gpu: output queue depth must be positive")
	}
	if c.Timing.MSHROverlap <= 0 {
		return fmt.Errorf("gpu: MSHR overlap must be positive")
	}
	if c.TileParallel < 0 {
		return fmt.Errorf("gpu: tile parallelism must be non-negative, got %d", c.TileParallel)
	}
	return nil
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"tcor/internal/cache"
	"tcor/internal/dram"
	"tcor/internal/experiments"
	"tcor/internal/geom"
	"tcor/internal/gpu"
	"tcor/internal/l2"
	"tcor/internal/pbuffer"
	"tcor/internal/raster"
	"tcor/internal/serve"
	"tcor/internal/stats"
	"tcor/internal/tiling"
	"tcor/internal/workload"
)

// reportStamp is the Generated time written into every report; the oracle
// ignores that line anyway.
var reportStamp = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// withoutGenerated drops the report's "Generated ..." line, the only one
// that differs between runs.
func withoutGenerated(b []byte) []byte {
	var out []string
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "Generated ") {
			out = append(out, line)
		}
	}
	return []byte(strings.Join(out, "\n"))
}

// newRunner is the researcher's Runner: the full suite at spec frames,
// with one sweep worker per CPU.
func newRunner() *experiments.Runner {
	r := experiments.NewRunner()
	r.Parallel = runtime.NumCPU()
	return r
}

// warmUp writes the report of a one-benchmark, one-frame Runner: every
// code path of the full report runs once, so code pages and the heap's
// first growth are paid in set-up rather than by the first measured
// report.
func warmUp() error {
	w := newRunner()
	w.Benchmarks, w.Frames = []string{"GTr"}, 1
	return w.WriteReport(io.Discard, reportStamp)
}

// report regenerates RESULTS.md on a fresh Runner, closed loop, as many
// times as fit in the measured seconds, and checks every copy against the
// committed file.
func (r *run) report() error {
	var want []byte
	setup, err := timeSetup(5, func(bool) error {
		b, err := os.ReadFile(filepath.Join(r.repo, "RESULTS.md"))
		if err != nil {
			return err
		}
		want = withoutGenerated(b)
		return warmUp()
	})
	if err != nil {
		return fmt.Errorf("report setup: %w", err)
	}
	writeOne := func() (time.Duration, *experiments.Runner) {
		runtime.GC() // each report starts from a clean heap, as in a fresh process
		runner := newRunner()
		var buf bytes.Buffer
		t0 := time.Now()
		err := runner.WriteReport(&buf, reportStamp)
		d := time.Since(t0)
		r.res.Attempted++
		if err != nil {
			r.mismatch(false, "report: %v", err)
		} else if !bytes.Equal(withoutGenerated(buf.Bytes()), want) {
			r.mismatch(false, "report differs from RESULTS.md")
		}
		return d, runner
	}

	if r.traced {
		return r.reportTraced(writeOne)
	}
	u0 := sampleUsage()
	start := time.Now()
	var walls []float64
	var last *experiments.Runner
	for len(walls) == 0 || time.Since(start).Seconds() < r.seconds {
		d, runner := writeOne()
		walls = append(walls, ms(d))
		last = runner
	}
	u1 := sampleUsage()
	rss, err := retainedRSSMB()
	if err != nil {
		return err
	}
	runtime.KeepAlive(last) // the memo tables of a finished report count as retained
	s := summarize(walls)
	r.set("setup_s", setup)
	r.set("p50_ms", s.P50)
	r.set("cpu_ms_per_op", ms(u1.cpu-u0.cpu)/float64(len(walls)))
	r.set("rss_mb", rss)
	fmt.Fprintf(os.Stderr, "report: %d reports, p50 %.0f ms, slowest %.0f ms\n", len(walls), s.P50, s.Tail)
	return nil
}

// reportTraced times one untraced report, then the same work as a traced
// pass over the Runner's section methods in WriteReport's order, then a
// layer pass over the ten scenes.
func (r *run) reportTraced(writeOne func() (time.Duration, *experiments.Runner)) error {
	untraced, _ := writeOne()
	runtime.GC()
	u0 := sampleUsage()
	runner := newRunner()
	rec := r.rec
	root := rec.begin("report", "bench", "", 0)
	section := func(name string, fn func() error) error {
		var err error
		d := rec.timed(name, "experiments", root, func(int) { err = fn() })
		r.set("experiments.section_ms."+name, ms(d))
		return err
	}
	t0 := time.Now()
	err := section("headline", func() error { _, err := runner.Headline(); return err })
	if err == nil {
		err = section("figs", func() error {
			figs := []func() error{
				func() error { _, err := runner.Fig14(); return err },
				func() error { _, err := runner.Fig15(); return err },
				func() error { _, err := runner.Fig16(); return err },
				func() error { _, err := runner.Fig17(); return err },
				func() error { _, err := runner.Fig18(); return err },
				func() error { _, err := runner.Fig19(); return err },
				func() error { _, err := runner.Fig20(); return err },
				func() error { _, err := runner.Fig21(); return err },
				func() error { _, err := runner.Fig22(); return err },
				func() error { _, err := runner.Fig23(); return err },
				func() error { _, err := runner.Fig24(); return err },
			}
			for _, f := range figs {
				if err := f(); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err == nil {
		err = section("table2", func() error { _, err := runner.TableII(); return err })
	}
	if err == nil {
		err = section("related", func() error { _, err := runner.RelatedWork(48); return err })
	}
	traced := time.Since(t0)
	rec.end(root)
	if err != nil {
		return fmt.Errorf("report sections: %w", err)
	}
	gcs, pause := gcSince(u0)
	r.set("go.gc_cycles", float64(gcs))
	r.set("go.gc_pause_p99_ms", pause)
	r.set("trace.overhead_share", (ms(traced)-ms(untraced))/ms(untraced))
	snap := runner.Metrics().Snapshot()
	r.set("experiments.memo.runs.misses", float64(snap.Get("memo.runs.misses")))
	r.set("experiments.memo.scenes.misses", float64(snap.Get("memo.scenes.misses")))
	return r.layerPass(runner)
}

// layerAcc accumulates the layer pass's timings.
type layerAcc struct {
	generate, bin, replay, plan, commit time.Duration
	scenes, frames                      int
	sim                                 map[string]time.Duration
	sims                                map[string]int
	simTotal                            time.Duration
	primReads                           int64
	allocs, allocBytes                  uint64
	cells                               int
	geometry, binning, tiles, frameSelf time.Duration
	tracedFrames                        int
	lruNs, optNs                        time.Duration
	accesses                            int64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{sim: map[string]time.Duration{}, sims: map[string]int{}}
}

// layerPass calls each layer's public functions in turn over the ten
// scenes: Generate, Bin, Replay, a plan/commit pass into the benchmark's
// own L2 and DRAM, gpu.Simulate under each configuration, and the
// trace-driven cache simulator on the Runner's attribute traces.
func (r *run) layerPass(runner *experiments.Runner) error {
	acc := newLayerAcc()
	root := r.rec.begin("layer_pass", "bench", "", 0)
	defer r.rec.end(root)
	for _, spec := range workload.Suite() {
		if err := r.layerScene(runner, spec, root, acc); err != nil {
			return fmt.Errorf("layer pass %s: %w", spec.Alias, err)
		}
	}
	r.setLayerAcc(acc)
	return nil
}

func (r *run) setLayerAcc(acc *layerAcc) {
	per := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return ms(d) / float64(n)
	}
	if acc.scenes > 0 {
		r.set("workload.generate_ms", per(acc.generate, acc.scenes))
	}
	if acc.frames > 0 {
		r.set("tiling.bin_ms", per(acc.bin, acc.frames))
		r.set("tiling.replay_ms", per(acc.replay, acc.frames))
		r.set("raster.plan_ms", per(acc.plan, acc.frames))
		r.set("raster.commit_ms", per(acc.commit, acc.frames))
		r.set("raster.commit_share", float64(acc.commit)/float64(acc.plan+acc.commit))
	}
	for _, cfg := range configNames {
		r.set("gpu.simulate_ms."+cfg, per(acc.sim[cfg], acc.sims[cfg]))
	}
	if acc.tracedFrames > 0 {
		r.set("gpu.frame.geometry_ms", per(acc.geometry, acc.tracedFrames))
		r.set("gpu.frame.binning_ms", per(acc.binning, acc.tracedFrames))
		r.set("gpu.frame.tiles_ms", per(acc.tiles, acc.tracedFrames))
		r.set("gpu.frame.self_ms", per(acc.frameSelf, acc.tracedFrames))
	}
	if acc.primReads > 0 {
		r.set("gpu.host_ns_per_prim_read", float64(acc.simTotal)/float64(acc.primReads))
	}
	if acc.cells > 0 {
		r.set("gpu.allocs_per_cell", float64(acc.allocs)/float64(acc.cells))
		r.set("gpu.alloc_mb_per_cell", float64(acc.allocBytes)/float64(acc.cells)/(1<<20))
	}
	if acc.accesses > 0 {
		r.set("cache.simulate_ns_per_access.LRU", float64(acc.lruNs)/float64(acc.accesses))
		r.set("cache.simulate_ns_per_access.OPT", float64(acc.optNs)/float64(acc.accesses))
	}
}

func (r *run) layerScene(runner *experiments.Runner, spec workload.Spec, root int, acc *layerAcc) error {
	rec := r.rec
	screen := geom.DefaultScreen()
	var sc *workload.Scene
	var err error
	acc.generate += rec.timed("workload.Generate", "workload", root, func(int) { sc, err = workload.Generate(spec, screen) })
	acc.scenes++
	if err != nil {
		return err
	}
	if err := r.tilingRaster(spec, sc, root, acc); err != nil {
		return err
	}
	for _, name := range configNames {
		if _, err := r.simulateCell(sc, spec.Alias, name, 64, root, acc); err != nil {
			return err
		}
	}
	tr, err := runner.AttributeTrace(spec.Alias)
	if err != nil {
		return err
	}
	cfg := cache.Config{Lines: experiments.CapacityPrims(48), Ways: 4, WriteAllocate: true}
	for _, pol := range []string{"LRU", "OPT"} {
		p, err := cache.NewPolicy(pol)
		if err != nil {
			return err
		}
		d := rec.timed("cache.Simulate."+pol, "cache", root, func(int) { _, err = cache.Simulate(cfg, p, tr) })
		if err != nil {
			return err
		}
		if pol == "LRU" {
			acc.lruNs += d
		} else {
			acc.optNs += d
		}
	}
	acc.accesses += int64(len(tr))
	return nil
}

// tilingRaster bins and replays every frame of a scene, then plans every
// tile's raster work and commits the plans in traversal order into the
// benchmark's own L2 and DRAM (the Table I hierarchy with the dead-line
// L2, as TCOR runs it).
func (r *run) tilingRaster(spec workload.Spec, sc *workload.Scene, root int, acc *layerAcc) error {
	rec := r.rec
	screen := geom.DefaultScreen()
	trav, err := tiling.NewTraversal(screen, tiling.OrderZ)
	if err != nil {
		return err
	}
	dramDev, err := dram.New(dram.DefaultConfig())
	if err != nil {
		return err
	}
	l2c, err := l2.New(l2.DefaultConfig(true), dramDev)
	if err != nil {
		return err
	}
	rcfg := raster.DefaultConfig(screen, int64(spec.TextureMiB*1024*1024), spec.ShaderInstrPerPixel)
	if spec.ThreeD {
		rcfg.TranslucentFraction = 0.05 // as gpu.Simulate configures 3D titles
	}
	pipe, err := raster.New(rcfg, l2c, dramDev)
	if err != nil {
		return err
	}
	scratch := pipe.NewScratch()
	plans := make([]raster.TilePlan, trav.NumTiles())
	var work []raster.TileWork
	for f := 0; f < sc.NumFrames(); f++ {
		prims := sc.Frame(f).Prims
		var b *tiling.Binning
		acc.bin += rec.timed("tiling.Bin", "tiling", root, func(int) { b, err = tiling.Bin(screen, trav, prims) })
		if err != nil {
			return err
		}
		var counts tiling.CountingHandler
		acc.replay += rec.timed("tiling.Replay", "tiling", root, func(int) {
			tiling.Replay(b, pbuffer.NewInterleavedListLayout(screen.NumTiles()), pbuffer.NewAttrLayout(), &counts)
		})
		acc.plan += rec.timed("raster.PlanTile", "raster", root, func(int) {
			for pos, tile := range trav.Seq {
				work = work[:0]
				for _, e := range b.Lists[tile] {
					work = append(work, raster.TileWork{Prim: &prims[e.Prim]})
				}
				pipe.PlanTile(tile, f, work, scratch, &plans[pos])
			}
		})
		acc.commit += rec.timed("raster.CommitPlan", "raster", root, func(int) {
			for pos := range plans {
				pipe.CommitPlan(&plans[pos])
			}
			l2c.EndFrame()
		})
		acc.frames++
	}
	return nil
}

// simulateCell runs one full-system simulation directly, as a cell of the
// layer pass or as an oracle's reference, and returns the body the daemon
// must serve for it. With tracing on, the simulator's own frame spans are
// folded in under the cell's span.
func (r *run) simulateCell(sc *workload.Scene, alias, cfgName string, kb int, parent int, acc *layerAcc) ([]byte, error) {
	cfg, err := configFor(cfgName, kb)
	if err != nil {
		return nil, err
	}
	var tracer *stats.Tracer
	if r.traced {
		tracer = stats.NewTracer(1024)
		cfg.Tracer = tracer
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var res *gpu.Result
	t0 := time.Now()
	id := r.rec.begin("gpu.Simulate."+cfgName, "gpu", "", parent)
	res, err = gpu.Simulate(sc, cfg)
	r.rec.end(id)
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	acc.sim[cfgName] += d
	acc.sims[cfgName]++
	acc.simTotal += d
	acc.primReads += res.PrimReads
	acc.allocs += m1.Mallocs - m0.Mallocs
	acc.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	acc.cells++
	if tracer != nil {
		r.foldFrames(tracer.Spans(), id, acc)
	}
	return serve.EncodeRunResult(serve.BuildRunResult(alias, cfgName, kb, res))
}

// foldFrames copies the simulator's spans of one cell under the cell's
// span and accumulates their per-phase frame time.
func (r *run) foldFrames(recs []stats.SpanRecord, parent int, acc *layerAcc) {
	byParent := map[int64][]stats.SpanRecord{}
	for _, s := range recs {
		byParent[s.Parent] = append(byParent[s.Parent], s)
	}
	var walk func(p int64, under int)
	walk = func(p int64, under int) {
		for _, s := range byParent[p] {
			walk(s.ID, r.rec.add(s.Name, "gpu", under, s.Start, s.Start.Add(s.Dur)))
		}
	}
	walk(0, parent)
	frameTimes(recs, acc)
}

// frameTimes accumulates, over the "frame" spans among recs, the time of
// each phase child (geometry, binning, tiles) and the frame's remainder.
func frameTimes(recs []stats.SpanRecord, acc *layerAcc) {
	byParent := map[int64][]stats.SpanRecord{}
	for _, s := range recs {
		byParent[s.Parent] = append(byParent[s.Parent], s)
	}
	for _, f := range recs {
		if f.Name != "frame" {
			continue
		}
		acc.tracedFrames++
		rest := f.Dur
		for _, c := range byParent[f.ID] {
			switch c.Name {
			case "geometry":
				acc.geometry += c.Dur
			case "binning":
				acc.binning += c.Dur
			case "tiles":
				acc.tiles += c.Dur
			}
			rest -= c.Dur
		}
		acc.frameSelf += rest
	}
}

// configFor maps an API configuration name onto the library constructor.
func configFor(name string, kb int) (gpu.Config, error) {
	switch name {
	case serve.ConfigBaseline:
		return gpu.Baseline(kb << 10), nil
	case serve.ConfigTCOR:
		return gpu.TCOR(kb << 10), nil
	case serve.ConfigTCORNoL2:
		return gpu.TCORNoL2(kb << 10), nil
	}
	return gpu.Config{}, fmt.Errorf("unknown config %q", name)
}

// Command perfbench is the repository's benchmark: it runs one workload
// against the simulator's public layers, checks every output against an
// oracle, and prints one JSON line of end-to-end metrics (or, with
// --trace 1, per-layer metrics from a separate traced run). Build and run
// it from the repository root with
//
//	python3 perfbench/run.py --workload report --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// catalog is the metric list of the repository's BENCHMARK.json: the
// end-to-end metrics an untraced run prints and the per-layer metrics a
// traced run prints, on every workload (a layer a workload does not
// exercise reads 0).
type catalog struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadCatalog(repo string) (catalog, error) {
	var c catalog
	b, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(c.EndToEnd) == 0 || len(c.PerLayer) == 0 {
		return c, fmt.Errorf("BENCHMARK.json lists no end_to_end or per_layer metrics")
	}
	return c, nil
}

// selfSharePrefix names the per-layer metrics that carry each traced
// layer's share of self time; the layers are read off the catalog.
const selfSharePrefix = "trace.self_share."

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and what it measured.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	repo     string // repository root (RESULTS.md lives there)
	outDir   string // where the traced run writes its span file

	rec       *recorder // nil unless traced
	res       result
	defs      []metricDef
	wrongs    []string
	phaseLogs []string
}

func (r *run) set(name string, v float64) {
	for _, d := range r.defs {
		if d.Name == name {
			r.res.Metrics[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("perfbench: metric " + name + " is not in BENCHMARK.json")
}

// mismatch records an output that failed its oracle. A request's
// mismatch is counted with its phase (its outcome is marked Wrong); any
// other output counts here.
func (r *run) mismatch(counted bool, format string, args ...any) {
	if !counted {
		r.res.Failed++
	}
	r.res.Correct = false
	if len(r.wrongs) < 10 {
		r.wrongs = append(r.wrongs, fmt.Sprintf(format, args...))
	}
}

// count folds a phase's requests into attempted/failed and logs its
// per-phase counts. An unmeasured phase (a goodput-ladder step) stays out
// of attempted, but a body of it that failed an oracle still counts as a
// mismatch.
func (r *run) count(p phaseResult, measured bool) {
	if !measured {
		for i, o := range p.Out {
			if o.Wrong {
				r.mismatch(false, "%s %s: served body failed its oracle", p.Name, p.Reqs[i].Key)
			}
		}
	}
	classes := map[string]bool{}
	for _, q := range p.Reqs {
		classes[q.Class] = true
	}
	var names []string
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		s := p.class(c)
		r.phaseLogs = append(r.phaseLogs, fmt.Sprintf("phase %-14s class %-5s sent %5d ok %5d failed %3d", p.Name, c, s.Sent, s.OK, s.Fail))
		if measured {
			r.res.Attempted += int64(s.Sent)
			r.res.Failed += int64(s.Fail)
		}
	}
	if measured && p.failures() > 0 {
		r.res.Correct = false
	}
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	cpu   time.Duration
	numGC uint32
}

func sampleUsage() usage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return usage{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), numGC: m.NumGC}
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	return float64(ru.Maxrss) / 1024            // Linux reports KiB
}

// retainedRSSMB is the resident set in MB once a collection has returned
// every free page to the OS: the memory the program keeps (result caches,
// memo tables), without the peak's dependence on when the collector last
// ran. Callers keep the program's objects alive across the call.
func retainedRSSMB() (float64, error) {
	runtime.GC()
	debug.FreeOSMemory()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/self/status")
}

// gcSince returns the collections since u and the 99th percentile of
// their pauses (ms; the runtime keeps the last 256).
func gcSince(u usage) (int, float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	n := int(m.NumGC - u.numGC)
	var pauses []float64
	for i := 0; i < n && i < len(m.PauseNs); i++ {
		pauses = append(pauses, float64(m.PauseNs[(int(m.NumGC)-1-i+len(m.PauseNs))%len(m.PauseNs)])/1e6)
	}
	sort.Float64s(pauses)
	return n, percentile(pauses, 990)
}

// timeSetup runs setup reps times, each from a collected heap, and
// returns the median duration in seconds; the last repetition's product
// is kept.
func timeSetup(reps int, setup func(last bool) error) (float64, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := setup(i == reps-1); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

func main() {
	r := &run{}
	flag.StringVar(&r.workload, "workload", "", "workload: report, serve-cold or gateway-hot")
	flag.Int64Var(&r.seed, "seed", 1, "input seed")
	flag.Float64Var(&r.seconds, "seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&r.repo, "repo", ".", "repository root")
	flag.StringVar(&r.outDir, "out", filepath.Join(".bench_build", "traces"), "directory for the traced run's span file")
	flag.Parse()
	r.traced = *trace == 1
	if err := r.main(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func (r *run) main() error {
	if r.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if _, err := os.Stat(filepath.Join(r.repo, "RESULTS.md")); err != nil {
		return fmt.Errorf("not at the repository root: %w", err)
	}
	cat, err := loadCatalog(r.repo)
	if err != nil {
		return err
	}
	r.res = result{Correct: true, Metrics: map[string]metric{}}
	r.defs = cat.EndToEnd
	if r.traced {
		r.defs = cat.PerLayer
		r.rec = newRecorder()
		for _, d := range r.defs {
			r.set(d.Name, 0)
		}
	}
	switch r.workload {
	case "report":
		err = r.report()
	case "serve-cold":
		err = r.serveCold()
	case "gateway-hot":
		err = r.gatewayHot()
	default:
		return fmt.Errorf("unknown --workload %q (report, serve-cold, gateway-hot)", r.workload)
	}
	if err != nil {
		return err
	}
	for _, l := range r.phaseLogs {
		fmt.Fprintln(os.Stderr, l)
	}
	for _, w := range r.wrongs {
		fmt.Fprintln(os.Stderr, "oracle mismatch:", w)
	}
	if r.res.Attempted < 1 {
		return fmt.Errorf("no work was attempted")
	}
	if r.traced {
		spans := r.rec.closed()
		self := layerSelf(spans)
		var layers []string
		for _, d := range r.defs {
			if l, ok := strings.CutPrefix(d.Name, selfSharePrefix); ok {
				layers = append(layers, l)
			}
		}
		var total time.Duration
		for _, l := range layers {
			total += self[l]
		}
		for _, l := range layers {
			if total > 0 {
				r.set(selfSharePrefix+l, float64(self[l])/float64(total))
			}
		}
		r.set("go.peak_rss_mb", peakRSSMB())
		path := filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
		if err := writeChrome(path, spans); err != nil {
			return fmt.Errorf("writing span file: %w", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", len(spans), path)
	}
	for _, d := range r.defs {
		if _, ok := r.res.Metrics[d.Name]; !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
	}
	out, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

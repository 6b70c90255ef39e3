package cluster

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"tcor/internal/serve"
	"tcor/internal/stats"
)

// Gateway telemetry rollup. A cluster's observability otherwise stops at
// the process boundary: three shards and a gateway are four unrelated
// /metrics pages. GET /v1/cluster/metrics scrapes every shard's Prometheus
// endpoint concurrently (bounded, breaker-aware) and re-emits the union as
// one page where every shard series carries a `shard="shard-<i>"` label,
// followed by gateway-computed fleet aggregates under `shard="fleet"`:
// counters and gauges summed, histograms merged bucket-by-bucket through
// stats.Histogram.Merge after parsing them back out of the text format.
// A shard that cannot be scraped degrades the page to a partial one —
// tcord_cluster_shard_up{shard=...} drops to 0, a Warning header flags the
// response — instead of failing it. GET /v1/cluster/health is the JSON
// companion: per-shard readyz/breaker state plus the ring's shape.

// MetricsScrapeTimeout bounds the whole shard scrape fan-out, and
// metricsScrapeParallel bounds how many shards are scraped at once.
const (
	MetricsScrapeTimeout  = 5 * time.Second
	metricsScrapeParallel = 4
)

// promSample is one exposition line: the full sample name (family name
// plus any _bucket/_sum/_count suffix), the label pairs inside the braces
// (without braces, "" when unlabeled) and the integer value.
type promSample struct {
	name   string
	labels string
	value  int64
}

// promFamily is one metric family as scraped from a shard, samples in page
// order (bucket bounds ascending, as the emitter writes them).
type promFamily struct {
	typ     string // counter | gauge | histogram
	samples []promSample
}

// parsePromText parses the repo's own Prometheus text exposition (integer
// values, one TYPE comment per family) into families by name. It is not a
// general scraper — it round-trips what stats.WritePrometheus emits.
func parsePromText(text string) (map[string]*promFamily, error) {
	fams := make(map[string]*promFamily)
	var current string
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return nil, fmt.Errorf("cluster: malformed TYPE line %q", line)
			}
			current = fields[2]
			fams[current] = &promFamily{typ: fields[3]}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("cluster: malformed sample line %q", line)
		}
		val, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: sample %q: %v", line, err)
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				return nil, fmt.Errorf("cluster: malformed labels in %q", line)
			}
			labels = name[i+1 : len(name)-1]
			name = name[:i]
		}
		fam := fams[familyOf(name, current)]
		if fam == nil {
			return nil, fmt.Errorf("cluster: sample %q precedes its TYPE line", line)
		}
		fam.samples = append(fam.samples, promSample{name: name, labels: labels, value: val})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return fams, nil
}

// familyOf maps a sample name back to its family: histogram samples carry
// _bucket/_sum/_count suffixes on the family name announced by the TYPE
// line; everything else is its own family.
func familyOf(name, current string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if strings.TrimSuffix(name, suffix) == current {
			return current
		}
	}
	return name
}

// histogramFromFamily rebuilds a HistogramSnapshot from a scraped
// histogram family: cumulative le buckets de-accumulate into per-bucket
// counts via the shared BucketUpper bounds (every daemon runs the same 64
// log-2 buckets), observations beyond the highest listed bound land in the
// top bucket, and _sum/_count restore verbatim.
func histogramFromFamily(fam *promFamily) (stats.HistogramSnapshot, error) {
	var s stats.HistogramSnapshot
	boundIdx := make(map[int64]int, stats.HistogramBuckets-1)
	for i := 0; i < stats.HistogramBuckets-1; i++ {
		boundIdx[stats.BucketUpper(i)] = i
	}
	var prevCum, listedTotal int64
	for _, sm := range fam.samples {
		switch {
		case strings.HasSuffix(sm.name, "_sum"):
			s.Sum = sm.value
		case strings.HasSuffix(sm.name, "_count"):
			s.Count = sm.value
		case strings.HasSuffix(sm.name, "_bucket"):
			le := labelValue(sm.labels, "le")
			if le == "+Inf" {
				continue // redundant with _count
			}
			bound, err := strconv.ParseInt(le, 10, 64)
			if err != nil {
				return s, fmt.Errorf("cluster: le=%q: %v", le, err)
			}
			idx, ok := boundIdx[bound]
			if !ok {
				return s, fmt.Errorf("cluster: le=%q is not a shared bucket bound", le)
			}
			s.Buckets[idx] = sm.value - prevCum
			prevCum = sm.value
			listedTotal = sm.value
		}
	}
	if rest := s.Count - listedTotal; rest > 0 {
		s.Buckets[stats.HistogramBuckets-1] += rest
	}
	return s, nil
}

// labelValue extracts one label's value from a rendered label-pair list.
func labelValue(labels, key string) string {
	for _, pair := range strings.Split(labels, ",") {
		if k, v, ok := strings.Cut(pair, "="); ok && k == key {
			return strings.Trim(v, `"`)
		}
	}
	return ""
}

// scrapeShards pulls and parses every shard's /metrics page, at most
// metricsScrapeParallel at a time, skipping shards whose breaker is open.
// Both results are indexed by shard.
func (g *Gateway) scrapeShards(ctx context.Context) ([]map[string]*promFamily, []error) {
	fams := make([]map[string]*promFamily, len(g.shards))
	errs := g.eachShard(metricsScrapeParallel, true, func(sh *shard) error {
		text, err := sh.client.MetricsText(ctx)
		if err != nil {
			return err
		}
		fams[sh.idx], err = parsePromText(string(text))
		return err
	})
	return fams, errs
}

func (g *Gateway) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		g.front.WriteError(w, serve.MethodNotAllowed(http.MethodGet))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), MetricsScrapeTimeout)
	defer cancel()
	scrapes, errs := g.scrapeShards(ctx)

	var b strings.Builder
	// The per-shard availability flags lead the page: a reader (or CI)
	// checks them before trusting the union below.
	b.WriteString("# TYPE tcord_cluster_shard_up gauge\n")
	partial := false
	for i, err := range errs {
		up := 1
		if err != nil {
			up, partial = 0, true
		}
		fmt.Fprintf(&b, "tcord_cluster_shard_up{shard=\"shard-%d\"} %d\n", i, up)
	}

	// Union of family names across every reachable shard, sorted so the
	// page is deterministic regardless of scrape completion order.
	famTypes := make(map[string]string)
	for _, fams := range scrapes {
		for name, fam := range fams {
			famTypes[name] = fam.typ
		}
	}
	names := make([]string, 0, len(famTypes))
	for name := range famTypes {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		typ := famTypes[name]
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
		// Every shard's own series, shard-labeled, in ring order.
		for i, sc := range scrapes {
			fam := sc[name]
			if fam == nil {
				continue
			}
			label := fmt.Sprintf("shard=%q", "shard-"+strconv.Itoa(i))
			for _, sm := range fam.samples {
				if sm.labels == "" {
					fmt.Fprintf(&b, "%s{%s} %d\n", sm.name, label, sm.value)
				} else {
					fmt.Fprintf(&b, "%s{%s,%s} %d\n", sm.name, sm.labels, label, sm.value)
				}
			}
		}
		// The fleet aggregate: summed counters/gauges, merged histograms.
		switch typ {
		case "histogram":
			fleet := &stats.Histogram{}
			ok := true
			for _, sc := range scrapes {
				fam := sc[name]
				if fam == nil {
					continue
				}
				snap, err := histogramFromFamily(fam)
				if err != nil {
					g.opts.Logger.Warn("rollup: unmergeable histogram", "family", name, "err", err)
					ok = false
					break
				}
				fleet.Merge(stats.HistogramFromSnapshot(snap))
			}
			if ok {
				stats.WritePromHistogramSamples(&b, name, `shard="fleet"`, fleet.Snapshot()) //nolint:errcheck // strings.Builder never errs
			}
		default:
			var sum int64
			for _, sc := range scrapes {
				if fam := sc[name]; fam != nil {
					for _, sm := range fam.samples {
						sum += sm.value
					}
				}
			}
			fmt.Fprintf(&b, "%s{shard=\"fleet\"} %d\n", name, sum)
		}
	}
	if partial {
		w.Header().Set("Warning", `199 tcord "partial rollup: some shards unreachable"`)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String())) //nolint:errcheck // client gone is its own problem
}

// ClusterHealth is the body of GET /v1/cluster/health: the gateway's view
// of every shard plus its own lifecycle state.
type ClusterHealth struct {
	Status   string        `json:"status"` // ok | degraded | down
	Draining bool          `json:"draining"`
	VNodes   int           `json:"vnodes"`
	Shards   []ShardHealth `json:"shards"`
}

// ShardHealth is one shard's rollup row: ring name, router-side breaker
// position and the live readyz verdict (not probed when the breaker is
// open — the router already considers the shard down).
type ShardHealth struct {
	Name    string `json:"name"`
	Index   int    `json:"index"`
	Breaker string `json:"breaker"`
	Ready   bool   `json:"ready"`
	Detail  string `json:"detail,omitempty"`
}

func (g *Gateway) clusterHealth(r *http.Request) (any, error) {
	ctx, cancel := context.WithTimeout(r.Context(), MetricsScrapeTimeout)
	defer cancel()

	health := ClusterHealth{
		Draining: g.front.Draining(),
		VNodes:   g.opts.VNodes,
		Shards:   make([]ShardHealth, len(g.shards)),
	}
	errs := g.eachShard(metricsScrapeParallel, true, func(sh *shard) error {
		return sh.client.Ready(ctx)
	})
	ready := 0
	for _, sh := range g.shards {
		row := &health.Shards[sh.idx]
		row.Name, row.Index, row.Breaker = sh.name, sh.idx, sh.brk.State().String()
		switch err := errs[sh.idx]; {
		case err == nil:
			row.Ready = true
			ready++
		case err == errSkipped:
			row.Detail = "breaker open"
		default:
			row.Detail = err.Error()
		}
	}
	switch {
	case ready == len(health.Shards) && !health.Draining:
		health.Status = "ok"
	case ready > 0:
		health.Status = "degraded"
	default:
		health.Status = "down"
	}
	return health, nil
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"tcor/internal/arena"
	"tcor/internal/geom"
	"tcor/internal/gpu"
	"tcor/internal/stats"
	"tcor/internal/workload"
)

func TestConfigFor(t *testing.T) {
	cases := map[string]gpu.TileCacheKind{
		"baseline":  gpu.KindBaseline,
		"tcor":      gpu.KindTCOR,
		"tcor-nol2": gpu.KindTCOR,
	}
	for name, kind := range cases {
		cfg, err := configFor(name, 64)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if cfg.Kind != kind {
			t.Errorf("%s: kind = %v", name, cfg.Kind)
		}
		if cfg.TileCacheBytes != 64*1024 {
			t.Errorf("%s: size = %d", name, cfg.TileCacheBytes)
		}
	}
	if _, err := configFor("bogus", 64); err == nil {
		t.Error("unknown config must fail")
	}
	nol2, _ := configFor("tcor-nol2", 64)
	if nol2.L2Enhanced {
		t.Error("tcor-nol2 must disable the L2 enhancements")
	}
}

func TestParseOptionsValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring; empty = must succeed
	}{
		{"defaults", nil, ""},
		{"explicit run", []string{"-benchmark", "SoD", "-config", "baseline", "-size", "128"}, ""},
		{"compare alone", []string{"-compare"}, ""},
		{"stats and check", []string{"-stats", "out.json", "-check"}, ""},
		{"evtrace with stats", []string{"-evtrace", "8", "-stats", "out.json"}, ""},
		{"negative timeout", []string{"-timeout", "-1s"}, "-timeout"},
		{"negative frames", []string{"-frames", "-1"}, "-frames"},
		{"zero size", []string{"-size", "0"}, "-size"},
		{"negative size", []string{"-size", "-64"}, "-size"},
		{"negative parallel", []string{"-parallel", "-2"}, "-parallel"},
		{"negative evtrace", []string{"-evtrace", "-1"}, "-evtrace"},
		{"evtrace without stats", []string{"-evtrace", "8"}, "-stats"},
		{"chaos with compare", []string{"-compare", "-chaos", "rate=0.5,lat=10ms"}, ""},
		{"chaos without compare", []string{"-chaos", "rate=0.5"}, "-compare"},
		{"chaos bad plan", []string{"-compare", "-chaos", "rate=nope"}, "probability"},
		{"compare with config", []string{"-compare", "-config", "tcor"}, "conflicts"},
		{"spec with benchmark", []string{"-spec", "x.json", "-benchmark", "CCS"}, "conflicts"},
		{"policy alone", []string{"-policy", "ARC"}, ""},
		{"policy unknown", []string{"-policy", "bogus"}, "unknown policy"},
		{"policy with compare", []string{"-policy", "ARC", "-compare"}, "conflicts"},
		{"policy with stats", []string{"-policy", "ARC", "-stats", "out.json"}, "conflicts"},
		{"stray positional args", []string{"CCS"}, "unexpected arguments"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseOptions(tc.args, io.Discard)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("args %v must fail", tc.args)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestRunTextAndJSON(t *testing.T) {
	// Exercise both output paths end to end on the smallest benchmark.
	ctx := context.Background()
	base := options{benchmark: "GTr", config: "tcor", sizeKB: 64, frames: 1}
	for _, js := range []bool{false, true} {
		o := base
		o.jsonOut = js
		if err := run(ctx, io.Discard, o); err != nil {
			t.Fatalf("json=%v: %v", js, err)
		}
	}
	o := base
	o.config = "bogus"
	if err := run(ctx, io.Discard, o); err == nil {
		t.Error("bogus config must fail")
	}
	o = base
	o.benchmark = "nope"
	if err := run(ctx, io.Discard, o); err == nil {
		t.Error("unknown benchmark must fail")
	}
}

func TestParseOptionsCanonicalizesPolicy(t *testing.T) {
	o, err := parseOptions([]string{"-policy", "s3fifo"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if o.policy != "S3-FIFO" {
		t.Errorf("policy alias resolved to %q, want S3-FIFO", o.policy)
	}
}

func TestRunPolicyRace(t *testing.T) {
	// The -policy race anchors on LRU and OPT; text and json outputs share
	// one report.
	ctx := context.Background()
	o := options{benchmark: "GTr", policy: "ARC", sizeKB: 16, frames: 1}
	var text strings.Builder
	if err := run(ctx, &text, o); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Policy arena", "ARC", "LRU", "OPT"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}
	o.jsonOut = true
	var js strings.Builder
	if err := run(ctx, &js, o); err != nil {
		t.Fatal(err)
	}
	var rep arena.Report
	if err := json.Unmarshal([]byte(js.String()), &rep); err != nil {
		t.Fatalf("-policy -json is not a canonical report: %v", err)
	}
	if rep.Ranking[0].Policy != "OPT" {
		t.Errorf("OPT not ranked first: %+v", rep.Ranking)
	}
	o.benchmark = "nope"
	if err := run(ctx, io.Discard, o); err == nil {
		t.Error("unknown benchmark must fail the race")
	}
}

func TestRunWithSpecFile(t *testing.T) {
	path := t.TempDir() + "/s.json"
	data, err := workload.MarshalSpec(workload.Suite()[9]) // GTr, smallest
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	o := options{specPath: path, config: "tcor", sizeKB: 64, frames: 1}
	if err := run(context.Background(), io.Discard, o); err != nil {
		t.Fatal(err)
	}
	o.specPath = path + ".missing"
	if err := run(context.Background(), io.Discard, o); err == nil {
		t.Error("missing spec must fail")
	}
}

func TestRunStatsCheckAndTrace(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/stats.json"
	o := options{
		benchmark: "GTr", config: "tcor", sizeKB: 64, frames: 1,
		statsPath: path, check: true, evtrace: 8,
	}
	if err := run(context.Background(), io.Discard, o); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc statsDoc
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("stats file is not JSON: %v", err)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("stats runs = %d, want 1", len(doc.Runs))
	}
	r := doc.Runs[0]
	if r.Benchmark != "GTr" || r.Config != "tcor" || r.TileCacheKB != 64 {
		t.Errorf("run metadata wrong: %+v", r)
	}
	// Every hierarchy level must be covered by the schema.
	for _, want := range []string{
		"l1.list.hits", "l1.attr.reads", "l1.tile.accesses", "l1.vertex.accesses",
		"l2.reads", "l2.in.region.PB-Lists.reads", "dram.reads", "raster.fragments",
	} {
		if _, ok := r.Counters[want]; !ok {
			t.Errorf("counter %q missing from -stats output", want)
		}
	}
	if len(r.L2Trace) == 0 || len(r.L2Trace) > 8 {
		t.Errorf("L2 trace has %d events, want 1..8", len(r.L2Trace))
	}
}

func TestRunCompareStatsDeterministic(t *testing.T) {
	// The -stats file must not depend on -parallel scheduling.
	dir := t.TempDir()
	var dumps [][]byte
	for i, par := range []int{1, 2} {
		path := dir + "/" + string(rune('a'+i)) + ".json"
		o := options{
			benchmark: "GTr", config: "tcor", sizeKB: 64, frames: 1,
			compare: true, parallel: par, statsPath: path, check: true,
		}
		if err := run(context.Background(), io.Discard, o); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, blob)
	}
	if string(dumps[0]) != string(dumps[1]) {
		t.Error("-stats output differs across -parallel levels")
	}
	var doc statsDoc
	if err := json.Unmarshal(dumps[0], &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 2 || doc.Runs[0].Config != "baseline" || doc.Runs[1].Config != "tcor" {
		t.Fatalf("compare runs wrong: %+v", doc.Runs)
	}
	// Schema stability: both configurations publish the same counter names.
	if len(doc.Runs[0].Counters) != len(doc.Runs[1].Counters) {
		t.Errorf("schema differs: %d vs %d counters",
			len(doc.Runs[0].Counters), len(doc.Runs[1].Counters))
	}
}

// TestHTTPHandler drives the -http pages in process: /v1/stats is the
// -stats document of the runs so far, /metrics keeps each run's registry
// under the tcorsim.<benchmark>.<config> namespace, and /debug/trace serves
// the -trace spans only when -trace records them.
func TestHTTPHandler(t *testing.T) {
	spec, err := workload.ByAlias("GTr")
	if err != nil {
		t.Fatal(err)
	}
	spec.Frames = 1
	scene, err := workload.Generate(spec, geom.DefaultScreen())
	if err != nil {
		t.Fatal(err)
	}
	o := options{benchmark: "GTr", sizeKB: 64, frames: 1, evtrace: 8, httpAddr: ":0"}
	col := &collector{}
	tracer := stats.NewTracer(traceCapacity)
	if err := simulate(io.Discard, scene, "tcor", o, col, tracer); err != nil {
		t.Fatal(err)
	}
	get := func(h http.Handler, path string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Body.String()
	}
	h := col.handler(tracer)

	code, body := get(h, "/v1/stats")
	var doc statsDoc
	if err := json.Unmarshal([]byte(body), &doc); code != http.StatusOK || err != nil {
		t.Fatalf("/v1/stats answered %d (%v): %s", code, err, body)
	}
	if len(doc.Runs) != 1 || doc.Runs[0].Benchmark != "GTr" || doc.Runs[0].Config != "tcor" {
		t.Fatalf("/v1/stats runs = %+v", doc.Runs)
	}
	reads := doc.Runs[0].Counters["l2.reads"]
	if reads == 0 || reads != col.runs[0].Counters["l2.reads"] {
		t.Errorf("/v1/stats l2.reads = %d, run counted %d", reads, col.runs[0].Counters["l2.reads"])
	}
	if n := len(doc.Runs[0].L2Trace); n == 0 || n > 8 {
		t.Errorf("/v1/stats carries %d L2 trace events, want 1..8", n)
	}

	code, body = get(h, "/metrics")
	want := fmt.Sprintf("# TYPE tcorsim_GTr_tcor_l2_reads counter\ntcorsim_GTr_tcor_l2_reads %d\n", reads)
	if code != http.StatusOK || !strings.Contains(body, want) {
		t.Errorf("/metrics answered %d without %q", code, want)
	}

	code, body = get(h, "/debug/trace")
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &trace); code != http.StatusOK || err != nil || len(trace.TraceEvents) == 0 {
		t.Errorf("/debug/trace answered %d (%v) with %d events", code, err, len(trace.TraceEvents))
	}
	if code, _ := get(col.handler(nil), "/debug/trace"); code != http.StatusNotFound {
		t.Errorf("/debug/trace without -trace answered %d, want 404", code)
	}
}

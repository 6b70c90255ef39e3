// Serve runs the serving layer end to end: it starts a tcord server (in
// process by default, or points at a running daemon with -addr), talks to
// it through the typed retrying client, shows the content-addressed result
// cache collapsing a repeated request, fans a baseline-vs-TCOR comparison
// through /v1/sweep, and drains. In the in-process mode it also walks the
// multi-tenant + durable-jobs surface: a tenant-authenticated client
// submits a sweep with ?async=1, polls the job, and proves the stored
// result is byte-identical to the synchronous sweep.
//
// It doubles as a resilience drill. With -n it drives that many sequential
// simulate calls and exits non-zero if any of them surfaces an error — run
// it against `tcord -chaos "rate=0.2,lat=5ms,codes=500|503"` to prove the
// retrying client rides out injected faults:
//
//	go run ./cmd/tcord -addr :8344 -chaos "rate=0.2,codes=500|503" &
//	go run ./examples/serve -addr http://localhost:8344 -n 200
//
// -retry=false turns the retry layer off, which against a chaos daemon
// makes the drill fail — the difference is the point.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"tcor"
)

func main() {
	addr := flag.String("addr", "", "base URL of a running tcord daemon (empty = start one in process)")
	n := flag.Int("n", 0, "drive this many sequential simulate calls and report; 0 = demo flow")
	retry := flag.Bool("retry", true, "retry transient failures (5xx, 429, transport errors)")
	flag.Parse()
	if err := run(*addr, *n, *retry); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func run(addr string, n int, retry bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	var srv *tcor.Server
	baseURL := addr
	inProcess := baseURL == ""
	if inProcess {
		// The in-process daemon runs with a two-tenant roster and a durable
		// job store so the demo can walk the multi-tenant + async surface.
		tenants, err := tcor.ParseTenants([]byte(`{
			"key-acme": {"name": "acme", "weight": 3, "maxInflight": 4},
			"*":        {"name": "default", "weight": 1}
		}`))
		if err != nil {
			return err
		}
		jobsDir, err := os.MkdirTemp("", "tcor-jobs-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(jobsDir)
		srv = tcor.NewServer(tcor.ServeOptions{
			Workers: 2, CacheEntries: 16,
			Tenants: tenants, JobsDir: jobsDir, JobWorkers: 1,
		})
		started, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return err
		}
		baseURL = "http://" + started
	}

	// The retry policy is generous on attempts but tight on delay: against
	// a chaos daemon injecting faults at rate 0.2, ten attempts push the
	// per-call failure probability below 1e-6, so a 200-call drill passes.
	var opts []tcor.ClientOption
	if retry {
		opts = append(opts, tcor.WithClientRetry(tcor.RetryPolicy{
			MaxAttempts: 10,
			BaseDelay:   20 * time.Millisecond,
			MaxDelay:    500 * time.Millisecond,
		}))
	}
	c := tcor.NewServiceClient(baseURL, nil, opts...)

	v, err := c.Version(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("talking to %s (%s, %s)\n\n", baseURL, v.Version, v.GoVersion)

	if n > 0 {
		if err := drill(ctx, c, n); err != nil {
			return err
		}
	} else {
		if err := demo(ctx, c); err != nil {
			return err
		}
		// The tenancy/jobs walk needs the roster and job store only the
		// in-process daemon is guaranteed to have.
		if inProcess {
			if err := tenantsDemo(ctx, baseURL); err != nil {
				return err
			}
		}
	}

	if srv != nil {
		return srv.Shutdown(ctx)
	}
	return nil
}

// drill issues n sequential simulate calls and fails on the first surfaced
// error. Alternating the frame count between two values keeps the server's
// cache from absorbing everything while staying cheap.
func drill(ctx context.Context, c *tcor.ServiceClient, n int) error {
	start := time.Now()
	for i := 0; i < n; i++ {
		req := tcor.SimulateRequest{
			Benchmark: "CCS", Config: "tcor", TileCacheKB: 64, Frames: 1 + i%2,
		}
		if _, _, err := c.Simulate(ctx, req); err != nil {
			return fmt.Errorf("call %d/%d failed: %w", i+1, n, err)
		}
	}
	fmt.Printf("drill: %d/%d simulate calls succeeded in %v\n", n, n, time.Since(start).Round(time.Millisecond))
	return nil
}

// demo walks the serving features: cache coalescing, sweeps, metrics.
func demo(ctx context.Context, c *tcor.ServiceClient) error {
	// The same request twice: the first simulates, the second is served
	// from the content-addressed cache, byte-identical.
	req := tcor.SimulateRequest{Benchmark: "CCS", Config: "tcor", TileCacheKB: 64, Frames: 1, Check: true}
	for i := 0; i < 2; i++ {
		rr, outcome, err := c.Simulate(ctx, req)
		if err != nil {
			return err
		}
		fmt.Printf("%-9s %s/%s: PPC %.2f, FPS %.1f, DRAM reads %d (cache %s)\n",
			"simulate", rr.Benchmark, rr.Config, rr.PPC, rr.FPS, rr.MemReads, outcome)
	}

	// A sweep batches items through the server's bounded worker pool and
	// returns results in item order.
	runs, err := c.Sweep(ctx, tcor.SweepRequest{Items: []tcor.SimulateRequest{
		{Benchmark: "CCS", Config: "baseline", TileCacheKB: 64, Frames: 1},
		{Benchmark: "CCS", Config: "tcor", TileCacheKB: 64, Frames: 1},
	}})
	if err != nil {
		return err
	}
	fmt.Printf("\nsweep: baseline vs TCOR on CCS (64 KiB)\n")
	for _, rr := range runs {
		fmt.Printf("  %-9s PPC %.2f  hierarchy energy %.2f mJ\n", rr.Config, rr.PPC, rr.HierEnergyMJ)
	}
	fmt.Printf("  tiling speedup: %.1fx\n", runs[1].PPC/runs[0].PPC)

	st, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("\nserver metrics: %d simulations, %d cache hits, %d misses\n",
		st["serve.simulations.completed"], st["serve.cache.hits"], st["serve.cache.misses"])
	return nil
}

// tenantsDemo walks the multi-tenant + durable-jobs surface: a client
// authenticated as the "acme" tenant submits a sweep asynchronously, polls
// the job to completion, and proves the stored result is byte-identical to
// the same sweep run synchronously — the property that makes async
// submission and crash recovery safe to rely on.
func tenantsDemo(ctx context.Context, baseURL string) error {
	acme := tcor.NewServiceClient(baseURL, nil, tcor.WithClientTenant("key-acme"))

	sweep := tcor.SweepRequest{Items: []tcor.SimulateRequest{
		{Benchmark: "CCS", Config: "baseline", TileCacheKB: 64, Frames: 1},
		{Benchmark: "CCS", Config: "tcor", TileCacheKB: 64, Frames: 1},
		{Benchmark: "GTr", Config: "tcor", TileCacheKB: 64, Frames: 1},
	}}

	// Submission returns immediately with a content-addressed job ID;
	// resubmitting the same body as the same tenant returns the same job.
	job, err := acme.SweepAsync(ctx, sweep)
	if err != nil {
		return err
	}
	fmt.Printf("\nasync sweep submitted as tenant %q: job %s (%s, %d cells)\n",
		job.Tenant, job.ID, job.State, job.TotalCells)

	done, err := acme.WaitJob(ctx, job.ID, 50*time.Millisecond)
	if err != nil {
		return err
	}
	fmt.Printf("job finished: %s, %d/%d cells\n", done.State, done.DoneCells, done.TotalCells)

	asyncBytes, err := acme.JobResult(ctx, job.ID)
	if err != nil {
		return err
	}
	var stored struct {
		Runs []json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(asyncBytes, &stored); err != nil {
		return err
	}
	syncRuns, err := acme.SweepRaw(ctx, sweep)
	if err != nil {
		return err
	}
	if len(stored.Runs) != len(syncRuns) {
		return fmt.Errorf("async result has %d runs, sync sweep %d", len(stored.Runs), len(syncRuns))
	}
	for i := range syncRuns {
		if !bytes.Equal(stored.Runs[i], syncRuns[i]) {
			return fmt.Errorf("run %d diverged between async and sync execution", i)
		}
	}
	fmt.Printf("async result is byte-identical to the sync sweep (%d runs, %d bytes)\n",
		len(stored.Runs), len(asyncBytes))

	// The job listing is tenant-scoped: acme sees its job, an anonymous
	// caller sees none of it.
	jobs, err := acme.Jobs(ctx)
	if err != nil {
		return err
	}
	anon := tcor.NewServiceClient(baseURL, nil)
	anonJobs, err := anon.Jobs(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("job listings are tenant-scoped: acme sees %d, anonymous sees %d\n",
		len(jobs), len(anonJobs))

	st, err := acme.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("tenant metrics: acme made %d requests, jobs done %d\n",
		st["serve.tenant.acme.requests"], st["serve.jobs.done"])
	return nil
}

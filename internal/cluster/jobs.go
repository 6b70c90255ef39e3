package cluster

import (
	"context"
	"net/http"
	"sort"

	"tcor/internal/serve"
)

// --- durable job routing ---
//
// A job lives on exactly one shard: the ring owner of its content-addressed
// ID. The gateway recomputes that ID — kind, tenant credential, compacted
// body, the same recipe serve.JobID uses — and routes the submission there,
// forwarding the body verbatim so the shard derives the identical ID. Reads
// and cancels route by the ID in the URL. Both walk the ring on failure: a
// submission lands on the owner's successor when the owner is down, and a
// later poll finds it there because a shard's 404 sends the lookup to the
// next ring candidate instead of the caller.

// routeJobSubmit forwards an ?async=1 submission to the shard owning the
// job's content address and passes the shard's answer through unchanged —
// 202 for a fresh job, 200 for an idempotent resubmission.
func (g *Gateway) routeJobSubmit(w http.ResponseWriter, r *http.Request, kind string, body []byte) {
	id := serve.JobID(kind, serve.TenantKeyFromRequest(r), body)
	path := "/v1/sweep?async=1"
	if kind == serve.JobKindArena {
		path = "/v1/arena?async=1"
	}
	ctx, cancel := g.front.RequestContext(r, 0)
	defer cancel()
	g.jobSubmits.Inc()
	rp, sh, err := route(g, ctx, id, policy[reply]{span: "gw.job.submit", next404: true},
		func(ctx context.Context, sh *shard) (reply, error) {
			data, status, err := sh.client.SubmitJobRaw(ctx, path, body)
			return reply{body: data, status: status}, err
		})
	if err != nil {
		g.front.WriteError(w, err)
		return
	}
	rp.write(w, sh)
}

// listJobs answers GET /v1/jobs at the gateway: the calling tenant's jobs
// across every shard, merged oldest-first — the same ordering one shard's
// own listing uses, extended cluster-wide.
func (g *Gateway) listJobs(r *http.Request) (any, error) {
	ctx, cancel := g.front.RequestContext(r, 0)
	defer cancel()
	jobs, err := g.fanOutJobList(ctx)
	if err != nil {
		return nil, err
	}
	return serve.JobsResponse{Jobs: jobs}, nil
}

// fanOutJobList collects every shard's tenant-scoped job listing. Any shard
// failing fails the listing: a silently partial list would read as "those
// jobs are gone". Duplicated IDs — the same body resubmitted while ring
// candidates disagreed on a down owner — collapse to one row.
func (g *Gateway) fanOutJobList(ctx context.Context) ([]serve.JobRecord, error) {
	lists := make([][]serve.JobRecord, len(g.shards))
	errs := g.eachShard(0, false, func(sh *shard) error {
		jobs, err := sh.client.Jobs(ctx)
		lists[sh.idx] = jobs
		return err
	})
	var all []serve.JobRecord
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		all = append(all, lists[i]...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].CreatedAtMs != all[j].CreatedAtMs {
			return all[i].CreatedAtMs < all[j].CreatedAtMs
		}
		return all[i].ID < all[j].ID
	})
	deduped := all[:0]
	seen := make(map[string]bool, len(all))
	for _, rec := range all {
		if seen[rec.ID] {
			continue
		}
		seen[rec.ID] = true
		deduped = append(deduped, rec)
	}
	if deduped == nil {
		deduped = []serve.JobRecord{}
	}
	return deduped, nil
}

// handleJob proxies GET /v1/jobs/{id}, GET /v1/jobs/{id}/result and
// DELETE /v1/jobs/{id} to the shard holding the job — the ring owner first,
// walking successors when a shard errors or does not know the ID.
func (g *Gateway) handleJob(w http.ResponseWriter, r *http.Request) {
	id, op, err := serve.JobRequest(r)
	if err != nil {
		g.front.WriteError(w, err)
		return
	}
	ctx, cancel := g.front.RequestContext(r, 0)
	defer cancel()
	g.jobProxied.Inc()
	rp, sh, err := route(g, ctx, id, policy[reply]{span: "gw.job.proxy", next404: true},
		func(ctx context.Context, sh *shard) (reply, error) {
			var data []byte
			var err error
			switch op {
			case serve.JobGet:
				data, err = sh.client.JobRaw(ctx, id)
			case serve.JobCancel:
				data, err = sh.client.CancelJobRaw(ctx, id)
			case serve.JobResult:
				data, err = sh.client.JobResult(ctx, id)
			}
			return reply{body: data}, err
		})
	if err != nil {
		g.front.WriteError(w, err)
		return
	}
	rp.write(w, sh)
}

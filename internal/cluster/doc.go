// Package cluster scales the tcord serving layer horizontally: N
// independent shard daemons, each a full single-node serving stack
// (admission gate, result cache, circuit breaker, chaos sites), fronted
// by a gateway that speaks the same public API.
//
// # Placement
//
// Every simulation reduces to a content address (serve.CanonicalKey): a
// sha256 over the resolved workload spec and configuration. A
// consistent-hash ring with virtual nodes (Ring) maps each address to an
// owning shard, so repeated requests for the same simulation land on the
// same shard's result cache no matter which gateway routes them, and
// adding a shard moves only ~1/N of the key space. Per-node serving
// limits never enter the hash, so a gateway and every shard agree on
// placement from the shard list alone — there is no coordination service
// and no shard-to-shard traffic; all routing intelligence lives in the
// gateway.
//
// # One front door
//
// The gateway mounts the same serve.Front a daemon does: request IDs,
// trace joining, panic isolation, metering, the JSON error envelope, the
// strict body reader and the plumbing endpoints are one code path on
// both tiers. Only the tier layers differ: the gateway lifts the tenant
// credential into the context (the shard resolves it) and passes a
// shard's own rejection through unchanged (all circuits open is 503
// all_shards_unavailable, anything else 502 upstream_error). The
// conformance contract follows: a one-shard gateway answers any request
// to the shared API with a daemon's status, error code and Allow header,
// and a 2xx with its bytes — FuzzGatewayConformance searches for
// counterexamples.
//
// # Routing
//
// Every proxied call walks the ring through one primitive, route: owner
// first, shards whose breaker is open skipped, each attempt a child span
// under SiteProxy chaos with its outcome fed back to the breaker. A
// transport error, 5xx or 429 fails over to the next shard; any other
// 4xx is the request's own fault and passes through at once. Per call:
//
//	call        hedge  owner probe  404       walk
//	simulate    yes    yes          —         ring
//	arena       —      —            —         ring
//	jobs        —      —            continue  ring
//	sub-sweep   —      —            —         owner only
//
// Hedging: when the owner has not answered within the hedge delay
// (adaptive: the observed p99 of proxied simulate latency, floored at the
// 50 ms minHedge constant), a second copy goes to the next shard and the
// first answer wins; simulations are deterministic, so the cost is wasted
// cycles, never divergent answers. Owner probe: before a non-owner
// computes a failed-over simulation, the owner's cache is asked (serve.
// CacheOnlyHeader) — a shard with a broken compute path still answers
// from cache, and a dead one fails within the 1 s probeTimeout constant.
// A job's 404 walks on because a successor may hold a job submitted while
// its owner was down.
//
// /v1/sweep fans out as per-owner sub-sweeps (chunked to
// serve.MaxSweepItems, the shards' sweep limit) and reassembles the runs
// in global item order; run bodies travel as raw bytes, so the merge is
// byte-identical to one node. A failed sub-sweep degrades to item-by-item
// simulate routing.
//
// # Observability
//
// The gateway meters routing decisions (gw.hedges, gw.hedge.wins,
// gw.failovers, gw.probe.hits, gw.sweep.fallbackItems), per-shard client
// behavior (gw.shard.<i>.attempts/retries/giveups) and proxied latency
// (gw.proxy.duration, which also drives the adaptive hedger). GET
// /v1/ring reports the topology and each shard's breaker state; the
// standard /healthz, /readyz, /metrics and /v1/stats surfaces behave as
// on a single daemon. Request IDs pass through to shards, so one ID is
// greppable across both tiers' access logs.
package cluster

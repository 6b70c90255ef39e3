package cluster

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"time"

	"tcor/internal/resilience"
	"tcor/internal/serve"
	"tcor/internal/serve/client"
	"tcor/internal/stats"
)

// policy is what differs between the gateway's proxied calls. Everything
// else about an upstream attempt — breaker, chaos site, span, breaker
// feedback, failover accounting, the 4xx rule — is route's, the same for
// every caller.
type policy[T any] struct {
	// span names each attempt's child span.
	span string
	// hedge races a second copy on the next shard once hedgeDelay passes
	// without an answer (simulate).
	hedge bool
	// probe, when set, runs before a failover attempt on a non-owner: a
	// cached answer from the owner wins without calling that shard at all
	// (simulate).
	probe func(ctx context.Context, owner *shard) (T, bool)
	// next404 walks on past a shard's 404: the job may live on a successor
	// that absorbed its submission while the owner was down (jobs).
	next404 bool
	// ownerOnly tries the owner alone (sub-sweeps, which fall back item by
	// item instead of walking).
	ownerOnly bool
}

// route is the gateway's one ring walk. It serves call from the shards
// owning key, owner first, skipping shards whose breaker is open. The
// first success wins. A shard's 4xx other than 429 is the request's own
// fault — every shard would refuse it alike — so it passes through and
// the walk stops (a 404 walks on under next404). Anything else — transport
// errors, 5xx, 429, injected faults — fails over to the next candidate.
// It returns the answer and the shard that served it.
func route[T any](g *Gateway, ctx context.Context, key string, pol policy[T], call func(context.Context, *shard) (T, error)) (T, *shard, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	order := g.ring.Successors(key)
	if pol.ownerOnly {
		order = order[:1]
	}
	owner := g.shards[order[0]]

	type result struct {
		val    T
		from   *shard
		err    error
		hedged bool
	}
	results := make(chan result, len(order))
	var zero T
	next, pending, attempts := 0, 0, 0
	var firstErr, notFound, openErr error
	// launch starts the next candidate whose breaker admits it; failover
	// marks attempts triggered by a predecessor's answer, hedged marks
	// latency hedges.
	launch := func(failover, hedged bool) bool {
		for next < len(order) {
			sh := g.shards[order[next]]
			next++
			done, err := sh.brk.Allow()
			if err != nil {
				openErr = err
				continue
			}
			n := attempts
			attempts++
			pending++
			go func() {
				val, from, err := attempt(g, ctx, sh, owner, n, failover, hedged, pol, call, done)
				results <- result{val: val, from: from, err: err, hedged: hedged}
			}()
			return true
		}
		return false
	}
	if !launch(false, false) {
		return zero, nil, openErr
	}
	var hedgeTimer <-chan time.Time
	if pol.hedge && len(order) > 1 {
		if d := g.hedgeDelay(); d > 0 {
			hedgeTimer = time.After(d)
		}
	}
	for {
		select {
		case r := <-results:
			pending--
			if r.err == nil {
				if r.hedged {
					g.hedgeWins.Inc()
				}
				return r.val, r.from, nil
			}
			var ae *client.APIError
			switch {
			case errors.As(r.err, &ae) && ae.Status == http.StatusNotFound && pol.next404:
				// Not a failover: that shard is healthy, just not the holder.
				if notFound == nil {
					notFound = r.err
				}
				launch(true, false)
			case errors.As(r.err, &ae) && ae.Status < 500 && ae.Status != http.StatusTooManyRequests:
				return zero, nil, r.err
			default:
				if firstErr == nil {
					firstErr = r.err
				}
				if ctx.Err() == nil && launch(true, false) {
					g.failovers.Inc()
				}
			}
			if pending == 0 {
				switch {
				case notFound != nil:
					return zero, nil, notFound
				case firstErr != nil:
					return zero, nil, firstErr
				}
				return zero, nil, openErr
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			if launch(false, true) {
				g.hedges.Inc()
			}
		case <-ctx.Done():
			return zero, nil, ctx.Err()
		}
	}
}

// attempt is one upstream try on sh, recorded as a child span of the
// request's root — the span whose identity the shard call carries in its
// traceparent header, so the shard's own spans stitch under it. done
// reports the outcome to sh's breaker exactly once.
func attempt[T any](g *Gateway, ctx context.Context, sh, owner *shard, n int, failover, hedged bool, pol policy[T], call func(context.Context, *shard) (T, error), done func(error)) (val T, from *shard, err error) {
	sp, actx := stats.StartSpan(ctx, pol.span, "cluster")
	sp.SetAttr("shard", "shard-"+strconv.Itoa(sh.idx))
	sp.SetAttr("attempt", strconv.Itoa(n))
	if failover {
		sp.SetAttr("failover", "true")
	}
	if hedged {
		sp.SetAttr("hedged", "true")
	}
	defer func() {
		sp.SetAttr("outcome", attemptOutcome(ctx, err))
		sp.End()
	}()
	if err = g.opts.Chaos.Inject(actx, resilience.SiteProxy); err != nil {
		done(resilience.Ignore) // injected at the gateway, not the shard's fault
		return val, nil, err
	}
	if failover && sh != owner && pol.probe != nil {
		if cached, ok := pol.probe(actx, owner); ok {
			g.probeHits.Inc()
			sp.SetAttr("probeHit", "true")
			done(resilience.Ignore) // sh itself was never called
			return cached, owner, nil
		}
	}
	val, err = call(actx, sh)
	done(shardOutcome(err))
	return val, sh, err
}

// attemptOutcome labels an attempt span's result. A hedge loser — its
// sibling won and route canceled the race context — is "cancelled", the
// shape the stitched export shows for work the gateway deliberately
// abandoned; everything else is "ok", "deadline" or "error".
func attemptOutcome(ctx context.Context, err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.Canceled), errors.Is(ctx.Err(), context.Canceled):
		return "cancelled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	default:
		return "error"
	}
}

// shardOutcome classifies an upstream error for the shard's breaker: only
// path failures (transport errors, 5xx) count against it. Rejections the
// shard meant (4xx, including queue-full 429s) and cancellations say
// nothing about its health.
func shardOutcome(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return resilience.Ignore
	}
	var ae *client.APIError
	if errors.As(err, &ae) && ae.Status < 500 {
		return resilience.Ignore
	}
	return err
}

// reply is one proxied answer: the shard's exact bytes plus the header
// state that reproduces its response.
type reply struct {
	body    []byte
	outcome client.CacheOutcome // X-Tcord-Cache ("" for job calls)
	status  int                 // 0 = 200
}

// write serves rp as the response, naming sh as the serving shard.
func (rp reply) write(w http.ResponseWriter, sh *shard) {
	w.Header().Set("Content-Type", "application/json")
	if rp.outcome != "" {
		w.Header().Set("X-Tcord-Cache", string(rp.outcome))
	}
	w.Header().Set(serve.ShardHeader, sh.name)
	if rp.status != 0 {
		w.WriteHeader(rp.status)
	}
	w.Write(rp.body) //nolint:errcheck // client gone is its own problem
}

// errSkipped marks a shard eachShard did not call because its breaker is
// open.
var errSkipped = errors.New("skipped: breaker open")

// eachShard is the gateway's one per-shard fan-out: it calls fn for every
// shard concurrently, at most limit at a time (0 = no bound), and returns
// each shard's error indexed by shard. With skipOpen a shard whose breaker
// is open is not called and gets errSkipped: it is already considered
// down, and a scrape must never pollute the breaker window routing reads.
func (g *Gateway) eachShard(limit int, skipOpen bool, fn func(*shard) error) []error {
	errs := make([]error, len(g.shards))
	var sem chan struct{}
	if limit > 0 {
		sem = make(chan struct{}, limit)
	}
	var wg sync.WaitGroup
	for _, sh := range g.shards {
		if skipOpen && sh.brk.State() == resilience.Open {
			errs[sh.idx] = errSkipped
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if sem != nil {
				sem <- struct{}{}
				defer func() { <-sem }()
			}
			errs[sh.idx] = fn(sh)
		}()
	}
	wg.Wait()
	return errs
}

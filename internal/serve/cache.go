package serve

import (
	"container/list"
	"context"
	"sync"

	"tcor/internal/gpu"
	"tcor/internal/stats"
)

// cached is one finished simulation as the cache stores it: the result
// itself (so a later request can re-verify invariants without re-running)
// and its canonical encoding (so hits, coalesced waiters and fresh runs all
// serve the identical bytes).
type cached struct {
	res  *gpu.Result
	body []byte
}

// resultCache is the serving-layer mirror of the paper's replacement-policy
// theme: a content-addressed store of finished simulations (spec+config
// hash -> gpu.Result) with a bounded LRU eviction policy, fused with a
// singleflight table so concurrent identical requests collapse into one
// simulation. The design mirrors experiments/memo.go — an in-flight entry
// is a cell with a done channel; waiters block on the cell, not on a lock —
// but completed entries are bounded and recency-ordered instead of cached
// forever: a daemon's keyspace is open-ended where the Runner's grid is
// finite.
//
// Entries never expire: a key is the hash of everything that determines
// the result bytes, so a completed entry cannot go out of date. Capacity
// is the only eviction rule.
//
// Error results are never cached: a failure (queue-full, deadline, a
// panicking simulation) is not a deterministic function of the key, so the
// entry is dropped and the next request retries.
type resultCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // completed entries, front = most recently used
	m   map[string]*cacheEntry

	// byTenant charges every resident entry to the tenant whose miss
	// computed it. Eviction prefers entries of tenants over their
	// configured CacheShare, so one tenant's burst evicts its own tail
	// before touching anyone else's entries.
	byTenant map[string]*tenantCharge
	defName  string // the anonymous tenant's name, the fallback charge

	hits, misses, coalesced, evictions *stats.Counter
	size                               *stats.Gauge
}

// tenantCharge is one tenant's slice of a cache: its live entry count (the
// gauge mirrors it for /metrics) and the share-derived limit beyond which
// its entries become the preferred eviction victims (0 = cap unbounded, no
// preference).
type tenantCharge struct {
	limit     int
	count     int
	size      *stats.Gauge
	evictions *stats.Counter
}

// cacheEntry is one key's cell. done is closed exactly once, after which
// val/err are immutable; elem is non-nil only while the completed entry
// sits in the LRU list (guarded by resultCache.mu).
type cacheEntry struct {
	key    string
	tenant string // tenant name charged for the entry (the miss leader's)
	elem   *list.Element
	done   chan struct{}
	val    cached
	err    error
}

// newResultCache builds a cache bounded to capacity entries (capacity <= 0
// means unbounded), metering into reg under the given prefix ("serve.cache"
// for the simulate cache, "serve.arena.cache" for the arena's — two
// instances on one registry must not alias counters).
func newResultCache(capacity int, ts *TenantSet, reg *stats.Registry, prefix string) *resultCache {
	if ts == nil {
		ts = DefaultTenants()
	}
	c := &resultCache{
		cap:       capacity,
		ll:        list.New(),
		m:         make(map[string]*cacheEntry),
		byTenant:  make(map[string]*tenantCharge),
		defName:   ts.Default().Name,
		hits:      reg.Counter(prefix + ".hits"),
		misses:    reg.Counter(prefix + ".misses"),
		coalesced: reg.Counter(prefix + ".coalesced"),
		evictions: reg.Counter(prefix + ".evictions"),
		size:      reg.Gauge(prefix + ".size"),
	}
	for _, t := range ts.Tenants() {
		tc := &tenantCharge{
			size:      reg.Gauge(prefix + ".tenant." + t.Name + ".size"),
			evictions: reg.Counter(prefix + ".tenant." + t.Name + ".evictions"),
		}
		if capacity > 0 {
			// The share-derived limit, at least one entry: a tenant with a
			// tiny share must still be able to keep its latest result warm.
			tc.limit = int(t.CacheShare * float64(capacity))
			if tc.limit < 1 {
				tc.limit = 1
			}
		}
		c.byTenant[t.Name] = tc
	}
	return c
}

// chargeFor resolves a tenant name to its charge account, falling back to
// the anonymous tenant's for names outside the roster (a job resumed under
// a changed config).
func (c *resultCache) chargeFor(name string) *tenantCharge {
	if tc, ok := c.byTenant[name]; ok {
		return tc
	}
	return c.byTenant[c.defName]
}

// tenantNameFrom names the tenant a computed entry is charged to: the
// resolved tenant on the request context, else the anonymous tenant.
func (c *resultCache) tenantNameFrom(ctx context.Context) string {
	if t, ok := ctx.Value(tenantSpecKey{}).(*TenantSpec); ok {
		return t.Name
	}
	return c.defName
}

// outcome classifies how a get was served, for the X-Tcord-Cache header.
type outcome string

const (
	outcomeHit       outcome = "hit"
	outcomeMiss      outcome = "miss"
	outcomeCoalesced outcome = "coalesced"
)

// get returns the cached value for key, computing it at most once across
// concurrent callers. The first caller of an absent key becomes the leader
// and runs compute; everyone else waits for the leader's outcome (or their
// own context, whichever ends first). compute runs outside the cache lock.
func (c *resultCache) get(ctx context.Context, key string, compute func() (cached, error)) (cached, outcome, error) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		select {
		case <-e.done: // completed: a pure cache hit
			c.ll.MoveToFront(e.elem)
			c.mu.Unlock()
			c.hits.Inc()
			return e.val, outcomeHit, e.err
		default: // in flight: collapse onto the leader
			c.mu.Unlock()
			c.coalesced.Inc()
			select {
			case <-e.done:
				return e.val, outcomeCoalesced, e.err
			case <-ctx.Done():
				return cached{}, outcomeCoalesced, ctx.Err()
			}
		}
	}
	e := &cacheEntry{key: key, tenant: c.tenantNameFrom(ctx), done: make(chan struct{})}
	c.m[key] = e
	c.mu.Unlock()
	c.misses.Inc()

	// If compute panics, the panic keeps unwinding (the handler middleware
	// counts and answers it) but the cell must still resolve: waiters get
	// the error and the key is dropped so a retry recomputes instead of
	// hanging on a cell that will never close.
	completed := false
	defer func() {
		if !completed {
			e.err = errComputePanicked
			c.complete(e)
		}
	}()
	e.val, e.err = compute()
	completed = true
	c.complete(e)
	return e.val, outcomeMiss, e.err
}

// errComputePanicked is what coalesced waiters observe when the leader's
// simulation panicked out from under them.
var errComputePanicked = &apiError{status: 500, code: "internal_panic",
	msg: "simulation panicked"}

// complete publishes the leader's outcome: successes enter the LRU (evicting
// the least recently used completed entries beyond capacity), failures are
// forgotten so later requests retry. Waiters already holding the entry still
// observe val/err through the closed channel either way.
func (c *resultCache) complete(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	close(e.done)
	if e.err != nil {
		delete(c.m, e.key)
		return
	}
	e.elem = c.ll.PushFront(e)
	tc := c.chargeFor(e.tenant)
	tc.count++
	tc.size.Add(1)
	c.evictLocked()
}

// evictLocked trims the LRU to capacity and republishes the size gauge
// (c.mu held). Victim selection is proportional-share aware: the least
// recently used entry of a tenant over its CacheShare limit goes first, so
// a flooding tenant consumes its own tail; only when no tenant is over its
// share does plain LRU apply.
func (c *resultCache) evictLocked() {
	for c.cap > 0 && c.ll.Len() > c.cap {
		oldest := c.victimLocked()
		victim := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.m, victim.key)
		tc := c.chargeFor(victim.tenant)
		tc.count--
		tc.size.Add(-1)
		tc.evictions.Inc()
		c.evictions.Inc()
	}
	c.size.Set(int64(c.ll.Len()))
}

// victimLocked picks the eviction victim: scanning from the cold end, the
// first entry whose tenant is over its share limit; the coldest entry when
// every tenant is within its share.
func (c *resultCache) victimLocked() *list.Element {
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		if tc := c.chargeFor(e.tenant); tc.limit > 0 && tc.count > tc.limit {
			return el
		}
	}
	return c.ll.Back()
}

// peek returns key's completed entry without computing, as a hit. Absent
// keys and in-flight computes are misses: a probe never waits.
func (c *resultCache) peek(key string) (cached, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return cached{}, false
	}
	select {
	case <-e.done:
	default:
		return cached{}, false
	}
	c.ll.MoveToFront(e.elem)
	c.hits.Inc()
	return e.val, true
}

// len returns the number of completed entries (tests).
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

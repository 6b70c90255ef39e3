package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"
)

// request is one scheduled call of a phase.
type request struct {
	Class string // connection pool: "cold", "hit", "miss" or "warm"
	Key   simKey
	Due   time.Duration // offset from the phase start
	ID    string        // X-Request-Id
}

// outcome is what became of one request.
type outcome struct {
	Sent   time.Duration // offset from the phase start
	Done   time.Duration // offset from the phase start
	Lag    time.Duration // how late the generator released the request
	Status int
	Body   []byte
	Err    error
	Wrong  bool // the body failed an output oracle
}

func (o *outcome) ok() bool { return o.Err == nil && o.Status == http.StatusOK && !o.Wrong }

// phase is one stretch of open-loop load: requests released at their due
// times onto per-class pools of connections.
type phase struct {
	Name  string
	Reqs  []request      // ascending Due
	Pools map[string]int // connections per class
	// Check, when set, runs the inline oracle on each completed request in
	// the worker that sent it; it may set Wrong and must drop Body unless
	// the request is kept for a post-phase check.
	Check func(i int, o *outcome)
	// Closed sends each class's requests back to back on its connections,
	// ignoring Due; a request's latency then runs from when it was sent.
	Closed bool
}

// phaseResult pairs each request with its outcome.
type phaseResult struct {
	Name   string
	Reqs   []request
	Out    []outcome
	Length time.Duration // the scheduled span: the last due time
	Conns  int
	Closed bool
}

// loadgen sends a phase's requests to one /v1/simulate front door.
type loadgen struct {
	client *http.Client
	url    string
	rec    *recorder // nil when untraced
}

// newClient returns a client holding at most conns keep-alive connections
// to the front door.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// run releases every request at its due time and waits for all of them.
// A single dispatcher keeps the schedule; each class has its own fixed
// set of workers, one per connection, so a slow class cannot take a fast
// class's connections. A request whose pool is busy waits in the pool's
// queue — that wait is part of its latency, which runs from when it was
// due. A closed phase releases every request at once, so each worker
// sends its next request as soon as the last one is answered.
func (g *loadgen) run(ctx context.Context, p phase) phaseResult {
	res := phaseResult{Name: p.Name, Reqs: p.Reqs, Out: make([]outcome, len(p.Reqs)), Closed: p.Closed}
	queues := map[string]chan int{}
	sizes := map[string]int{}
	for _, r := range p.Reqs {
		sizes[r.Class]++
	}
	start := time.Now()
	var wg sync.WaitGroup
	for class, n := range sizes {
		conns := p.Pools[class]
		if conns < 1 {
			conns = 1
		}
		res.Conns += conns
		// Sized to the class's request count, so the dispatcher never
		// blocks on a busy pool and the schedule is kept.
		q := make(chan int, n)
		queues[class] = q
		wg.Add(conns)
		for w := 0; w < conns; w++ {
			go func() {
				defer wg.Done()
				for i := range q {
					o := &res.Out[i]
					g.send(ctx, p.Reqs[i], o, start)
					if p.Check != nil {
						p.Check(i, o)
					}
				}
			}()
		}
	}
	for i, r := range p.Reqs {
		if !p.Closed {
			if d := time.Until(start.Add(r.Due)); d > 0 {
				time.Sleep(d)
			}
			res.Out[i].Lag = time.Since(start) - r.Due
		}
		queues[r.Class] <- i
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	if n := len(p.Reqs); n > 0 {
		res.Length = p.Reqs[n-1].Due
	}
	return res
}

func (g *loadgen) send(ctx context.Context, r request, o *outcome, start time.Time) {
	o.Sent = time.Since(start)
	defer func() { o.Done = time.Since(start) }()
	id := g.rec.begin("client."+r.Class, "client", r.ID, 0)
	defer g.rec.end(id)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url+"/v1/simulate", bytes.NewReader(r.Key.body()))
	if err != nil {
		o.Err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", r.ID)
	resp, err := g.client.Do(req)
	if err != nil {
		o.Err = err
		return
	}
	defer resp.Body.Close()
	o.Body, o.Err = io.ReadAll(resp.Body)
	o.Status = resp.StatusCode
}

// schedule returns n due times at a fixed rate starting at offset 0, or
// with exponential gaps of the same mean (independent arrivals) when rng
// is non-nil.
func schedule(n int, rate float64, rng *rand.Rand) []time.Duration {
	out := make([]time.Duration, n)
	gap := float64(time.Second) / rate
	t := 0.0
	for i := range out {
		out[i] = time.Duration(t)
		if rng != nil {
			t += rng.ExpFloat64() * gap
		} else {
			t += gap
		}
	}
	return out
}

// merge interleaves request streams into one ascending schedule.
func merge(streams ...[]request) []request {
	var out []request
	for _, s := range streams {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Due < out[j].Due })
	return out
}

// stream builds the requests of one class from keys and due times.
func stream(class, phaseName string, seed int64, keys []simKey, due []time.Duration) []request {
	out := make([]request, len(keys))
	for i := range keys {
		out[i] = request{Class: class, Key: keys[i], Due: due[i],
			ID: fmt.Sprintf("pb-%d-%s-%s-%d", seed, phaseName, class, i)}
	}
	return out
}

// classStats reduces the outcomes of one class: latencies of the
// successful requests (ms, from when each was due, or sent in a closed
// phase), and counts.
type classStats struct {
	Lat            []float64
	Sent, OK, Fail int
}

func (p phaseResult) class(class string) classStats {
	var c classStats
	for i, r := range p.Reqs {
		if r.Class != class {
			continue
		}
		o := &p.Out[i]
		c.Sent++
		if o.ok() {
			c.OK++
			from := r.Due
			if p.Closed {
				from = o.Sent
			}
			c.Lat = append(c.Lat, ms(o.Done-from))
		} else {
			c.Fail++
		}
	}
	return c
}

// lagP99 is the generator's lateness at the 99th percentile (ms).
func (p phaseResult) lagP99() float64 {
	lag := make([]float64, len(p.Out))
	for i := range p.Out {
		lag[i] = ms(p.Out[i].Lag)
	}
	sort.Float64s(lag)
	return percentile(lag, 990)
}

// growing applies the backlog detector to the phase.
func (p phaseResult) growing() bool {
	due := make([]time.Duration, len(p.Reqs))
	done := make([]time.Duration, len(p.Reqs))
	for i, r := range p.Reqs {
		due[i] = r.Due
		done[i] = p.Out[i].Done
		if !p.Out[i].ok() {
			done[i] = never
		}
	}
	return backlogGrowing(due, done, p.Length, p.Conns)
}

// failures counts failed requests of every class.
func (p phaseResult) failures() int {
	n := 0
	for i := range p.Out {
		if !p.Out[i].ok() {
			n++
		}
	}
	return n
}

// maxLag is how late the generator may run before a phase is invalid:
// beyond it the offered load is no longer the scheduled one.
const maxLag = 50 * time.Millisecond

// checkLag returns an error when the generator fell behind its schedule.
func (p phaseResult) checkLag() error {
	if lag := p.lagP99(); lag > ms(maxLag) {
		return fmt.Errorf("phase %s: load generator fell behind (lag p99 %.1f ms > %.0f ms); run invalid", p.Name, lag, ms(maxLag))
	}
	return nil
}

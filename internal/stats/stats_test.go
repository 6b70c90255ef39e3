package stats

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	c.Store(7)
	if c.Load() != 0 {
		t.Error("nil counter must read 0")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Load() != 0 {
		t.Error("nil gauge must read 0")
	}
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Counter("l2.hits").Add(10)
	r.Counter("l2.hits").Inc()
	r.Counter("l2.misses").Store(4)
	r.Gauge("attr.free").Set(32)
	if got := r.Counter("l2.hits").Load(); got != 11 {
		t.Errorf("hits = %d, want 11", got)
	}
	s := r.Snapshot()
	if s.Get("l2.hits") != 11 || s.Get("l2.misses") != 4 || s.Get("attr.free") != 32 {
		t.Errorf("snapshot %v", s)
	}
	if s.Get("absent") != 0 {
		t.Error("absent metric must read 0")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	// The registry must be race-clean under the sweep engine's concurrency:
	// many goroutines hammering overlapping names (run with -race).
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
				r.Counter(fmt.Sprintf("own.%d", i)).Inc()
				r.Gauge("depth").Set(int64(j))
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Load(); got != 8000 {
		t.Errorf("shared = %d, want 8000", got)
	}
}

func TestSnapshotJSONSchemaStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.second").Store(2)
	r.Counter("a.first").Store(1)
	// Encode the way the daemon's /v1/stats and the CLIs' -http pages do.
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "\n") {
		t.Error("JSON output must end in a newline")
	}
	// Keys must appear sorted regardless of insertion order.
	if ia, ib := strings.Index(out, "a.first"), strings.Index(out, "b.second"); ia < 0 || ib < 0 || ia > ib {
		t.Errorf("keys not sorted: %s", out)
	}
	var back map[string]int64
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back["a.first"] != 1 || back["b.second"] != 2 {
		t.Errorf("round trip: %v", back)
	}
}

func TestInvariants(t *testing.T) {
	r := NewRegistry()
	r.Counter("c.hits").Store(6)
	r.Counter("c.misses").Store(4)
	r.Counter("c.accesses").Store(10)
	r.RegisterInvariant("c.conservation", func(s Snapshot) error {
		if s.Get("c.hits")+s.Get("c.misses") != s.Get("c.accesses") {
			return fmt.Errorf("hits+misses != accesses")
		}
		return nil
	})
	if err := r.Check(); err != nil {
		t.Fatalf("invariant must hold: %v", err)
	}
	r.Counter("c.accesses").Store(11)
	err := r.Check()
	if err == nil {
		t.Fatal("violated invariant must fail Check")
	}
	if !strings.Contains(err.Error(), "c.conservation") {
		t.Errorf("violation must name the invariant: %v", err)
	}
	// Re-registering under the same name replaces, not duplicates.
	r.RegisterInvariant("c.conservation", func(Snapshot) error { return nil })
	if err := r.Check(); err != nil {
		t.Errorf("replaced invariant must pass: %v", err)
	}
	if n := len(r.InvariantNames()); n != 1 {
		t.Errorf("expected 1 invariant, got %d", n)
	}
}

func TestCheckDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	for _, n := range []string{"z.last", "a.first", "m.middle"} {
		n := n
		r.RegisterInvariant(n, func(Snapshot) error { return fmt.Errorf("boom") })
	}
	err := r.Check()
	if err == nil {
		t.Fatal("expected violations")
	}
	msg := err.Error()
	ia, im, iz := strings.Index(msg, "a.first"), strings.Index(msg, "m.middle"), strings.Index(msg, "z.last")
	if !(ia < im && im < iz) {
		t.Errorf("violations not in sorted order: %q", msg)
	}
}

func TestRing(t *testing.T) {
	if r := NewRing(0); r != nil {
		t.Error("NewRing(0) must return the nil no-op ring")
	}
	var nilRing *Ring
	nilRing.Record(Event{Kind: "x"}) // must not panic
	if nilRing.Events() != nil || nilRing.Total() != 0 {
		t.Error("nil ring must be empty")
	}

	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Record(Event{Kind: "evict", Key: uint64(i)})
	}
	ev := r.Events()
	if len(ev) != 3 {
		t.Fatalf("ring holds %d events, want 3", len(ev))
	}
	for i, e := range ev {
		if want := uint64(i + 2); e.Key != want || e.Seq != int64(i+2) {
			t.Errorf("event %d = key %d seq %d, want key/seq %d", i, e.Key, e.Seq, want)
		}
	}
	if r.Total() != 5 {
		t.Errorf("total = %d, want 5", r.Total())
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing(16)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Record(Event{Kind: "e"})
				_ = r.Events()
			}
		}()
	}
	wg.Wait()
	if r.Total() != 2000 {
		t.Errorf("total = %d, want 2000", r.Total())
	}
}

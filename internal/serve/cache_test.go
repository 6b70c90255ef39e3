package serve

import (
	"context"
	"testing"

	"tcor/internal/stats"
)

// TestPeek covers the cache-only probe the gateway's peer-aware lookup
// uses: completed entries hit, and absent or in-flight keys miss without
// waiting.
func TestPeek(t *testing.T) {
	c := newResultCache(8, DefaultTenants(), stats.NewRegistry(), "serve.cache")

	if _, ok := c.peek("k"); ok {
		t.Fatal("peek hit an absent key")
	}
	if _, _, err := c.get(context.Background(), "k", func() (cached, error) {
		return cached{body: []byte("v\n")}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if val, ok := c.peek("k"); !ok || string(val.body) != "v\n" {
		t.Fatalf("peek = (%q, %v), want a hit", val.body, ok)
	}

	// In-flight keys never make a probe wait.
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.get(context.Background(), "k2", func() (cached, error) {
			close(entered)
			<-release
			return cached{body: []byte("x\n")}, nil
		})
	}()
	<-entered
	if _, ok := c.peek("k2"); ok {
		t.Fatal("peek returned an in-flight entry")
	}
	close(release)
}

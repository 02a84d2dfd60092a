package cluster

import (
	"context"
	"testing"
)

// TestDictExprCacheEndToEnd drives dictionary-space expressions through a
// real cluster: two different queries sharing one group-by expression are
// each served in dictionary space on every segment, each segment execution
// building the memo it needs.
func TestDictExprCacheEndToEnd(t *testing.T) {
	c, err := NewLocal(Options{Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	loadOffline(t, c, 1)

	// A DIFFERENT second query, so the broker's result tier cannot answer it.
	for _, q := range []string{
		"SELECT count(*) FROM events GROUP BY lower(country) TOP 5",
		"SELECT sum(clicks) FROM events GROUP BY lower(country) TOP 5",
	} {
		res, err := c.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.DictExprSegments != 4 {
			t.Fatalf("%s: DictExprSegments = %d, want 4 (one per segment)", q, res.Stats.DictExprSegments)
		}
	}

	// An expression predicate matching nothing prunes every segment
	// server-side: the cluster answer is an empty count with zero docs
	// scanned, and the pruning decisions count as dictionary-space service.
	res, err := c.Execute(context.Background(), "SELECT count(*) FROM events WHERE upper(country) = 'NOPE'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SegmentsPrunedByValue != 4 || res.Stats.NumDocsScanned != 0 {
		t.Fatalf("no-match expression predicate did not prune: %+v", res.Stats)
	}
	if res.Stats.DictExprSegments != 4 {
		t.Fatalf("pruning DictExprSegments = %d, want 4", res.Stats.DictExprSegments)
	}
}

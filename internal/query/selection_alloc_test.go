package query

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"pinot/internal/pql"
	"pinot/internal/segment"
)

// lookupSegments builds a lookup table's segments: sorted on memberId, each
// member a couple of rows in every segment, like the repository benchmark's
// lookup_fanout workload.
func lookupSegments(t testing.TB, n int) ([]IndexedSegment, *segment.Schema) {
	t.Helper()
	schema, err := segment.NewSchema("lookup", []segment.FieldSpec{
		{Name: "memberId", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "itemId", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "impressions", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	var segs []IndexedSegment
	for s := 0; s < n; s++ {
		b, err := segment.NewBuilder("lookup", fmt.Sprintf("lookup_%d", s), schema, segment.IndexConfig{SortColumn: "memberId"})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			if err := b.Add(segment.Row{int64(i % 200), int64(100000 + s*1000 + i), int64(i * 7 % 3000)}); err != nil {
				t.Fatal(err)
			}
		}
		seg, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, IndexedSegment{Seg: seg})
	}
	return segs, schema
}

// TestLookupSelectionAllocs pins what a lookup-shaped selection allocates
// from its segments to the client's rows: 12 segments executed four to a
// server by an engine, each server's result encoded and decoded, the three
// merged and finalized — 24 rows of two columns. The ceiling is a few
// allocations above the count measured (277, about 15.7 KB; a -race build
// drops pooled scratch and gets a looser one); CHANGES.md records the same
// for the boxed rows that came before typed columns.
func TestLookupSelectionAllocs(t *testing.T) {
	segs, schema := lookupSegments(t, 12)
	q, err := pql.Parse("SELECT itemId, impressions FROM lookup WHERE memberId = 7 LIMIT 200")
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	eng := &Engine{parallelism: 1}
	run := func() {
		var merged *Intermediate
		for server := 0; server < 3; server++ {
			folded, _, err := eng.Execute(context.Background(), q, segs[server*4:server*4+4], schema)
			if err != nil {
				t.Fatal(err)
			}
			b, err := EncodeIntermediate(folded)
			if err != nil {
				t.Fatal(err)
			}
			back, err := DecodeIntermediate(b)
			if err != nil {
				t.Fatal(err)
			}
			if merged == nil {
				merged = back
			} else if err := merged.Merge(back); err != nil {
				t.Fatal(err)
			}
		}
		rows = len(merged.Finalize(q).Rows)
	}
	run()
	if rows != 24 {
		t.Fatalf("%d rows, want 24", rows)
	}
	allocs := testing.AllocsPerRun(20, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	t.Logf("%.0f allocations, %d bytes a query", allocs, (after.TotalAlloc-before.TotalAlloc)/runs)
	ceiling := 285.0
	if raceDetector {
		// Measured 319 under -race, where pooled scratch is dropped at random.
		ceiling = 360
	}
	if allocs > ceiling {
		t.Errorf("%.0f allocations a query, ceiling %.0f", allocs, ceiling)
	}
}

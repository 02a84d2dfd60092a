package query

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"pinot/internal/pql"
	"pinot/internal/segment"
)

// metricsSegments builds n segments of a metrics table shaped like the
// repository benchmark's scan_groupby workload: a metric name, a country and
// a platform as string dimensions, a value and a count as metrics, and a day.
func metricsSegments(t testing.TB, n, rows int) ([]IndexedSegment, *segment.Schema) {
	t.Helper()
	schema, err := segment.NewSchema("metrics", []segment.FieldSpec{
		{Name: "metricName", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "country", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "platform", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "value", Type: segment.TypeDouble, Kind: segment.Metric, SingleValue: true},
		{Name: "count", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
		{Name: "day", Type: segment.TypeLong, Kind: segment.Time, SingleValue: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	platforms := []string{"android", "api", "ios", "web"}
	var segs []IndexedSegment
	for s := 0; s < n; s++ {
		b, err := segment.NewBuilder("metrics", fmt.Sprintf("metrics_%d", s), schema, segment.IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			row := segment.Row{fmt.Sprintf("metric%d", r.Intn(8)), fmt.Sprintf("country%d", r.Intn(40)), platforms[r.Intn(4)],
				float64(r.Intn(80000)), int64(1 + r.Intn(20)), int64(16000 + r.Intn(40))}
			if err := b.Add(row); err != nil {
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

// TestScanGroupByAllocs pins what a scan_groupby-shaped query allocates from
// its segments to the client's rows: 8 segments executed four to a server by
// two engines, each server's result encoded and decoded, the two merged and
// finalized — a filtered GROUP BY of two string keys, about 150 groups a
// segment. The ceiling is a few allocations above the count measured (454,
// about 77 KB; a -race build drops pooled storage at random and gets a
// looser one); CHANGES.md records the same for the tables built fresh for
// every segment that came before pooled ones.
func TestScanGroupByAllocs(t *testing.T) {
	segs, schema := metricsSegments(t, 8, 4000)
	q, err := pql.Parse("SELECT sum(value), count(*) FROM metrics WHERE metricName = 'metric3' AND day BETWEEN 16002 AND 16026 GROUP BY country, platform TOP 20")
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	engines := []*Engine{{parallelism: 1}, {parallelism: 1}}
	run := func() {
		var merged *Intermediate
		for server, eng := range engines {
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
	if rows != 20 {
		t.Fatalf("%d rows, want 20", rows)
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
	ceiling := 470.0
	if raceDetector {
		// Measured 614–628 under -race, where pooled storage is dropped at random.
		ceiling = 700
	}
	if allocs > ceiling {
		t.Errorf("%.0f allocations a query, ceiling %.0f", allocs, ceiling)
	}
}

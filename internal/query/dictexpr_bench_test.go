// Benchmarks for dictionary-space expression execution, the issue's
// acceptance fixture: 200k rows over a 1000-cardinality string dimension.
// The A/B pairs time the same query with dictionary space on (memos built
// per segment execution, as a server runs it) and off (the row-path rung:
// the same kernels over every row, the cost the paper's derived-column
// workloads would otherwise pay).
package query

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pinot/internal/segment"
)

// dictBenchSegments builds the 200k-row / 1k-cardinality fixture.
func dictBenchSegments(b *testing.B) []IndexedSegment {
	b.Helper()
	schema, err := segment.NewSchema("dbench", []segment.FieldSpec{
		{Name: "name", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "hits", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
		{Name: "day", Type: segment.TypeLong, Kind: segment.Time, SingleValue: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	bld, err := segment.NewBuilder("dbench", "dbench_seg", schema, segment.IndexConfig{})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 200000; i++ {
		row := segment.Row{
			fmt.Sprintf("Name%03d", r.Intn(1000)),
			int64(r.Intn(500)),
			int64(18000 + r.Intn(30)),
		}
		if err := bld.Add(row); err != nil {
			b.Fatal(err)
		}
	}
	seg, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	return []IndexedSegment{{Seg: seg}}
}

// dictExprAB times one query under dictionary space vs the row path (block
// kernels over every row), cross-checks the rows agree, and reports the
// ratio — the headline number for this subsystem (EXPERIMENTS.md).
func dictExprAB(b *testing.B, q string) {
	segs := dictBenchSegments(b)
	ctx := context.Background()
	dictOpt, rowOpt := Options{}, ForceRungs(Options{}, true)
	var dictNS, rowNS time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		rd, err := Run(ctx, q, segs, nil, dictOpt)
		if err != nil {
			b.Fatal(err)
		}
		dictNS += time.Since(start)

		start = time.Now()
		rr, err := Run(ctx, q, segs, nil, rowOpt)
		if err != nil {
			b.Fatal(err)
		}
		rowNS += time.Since(start)

		if len(rd.Rows) != len(rr.Rows) || fmt.Sprint(rd.Rows) != fmt.Sprint(rr.Rows) {
			b.Fatalf("dictionary-space and row-path runs disagree:\n%+v\nvs\n%+v", rd.Rows, rr.Rows)
		}
	}
	b.ReportMetric(float64(dictNS.Nanoseconds())/float64(b.N), "dict-ns/op")
	b.ReportMetric(float64(rowNS.Nanoseconds())/float64(b.N), "row-ns/op")
	b.ReportMetric(float64(rowNS)/float64(dictNS), "row/dict")
}

// BenchmarkDictExprPredicate: an expression predicate selecting one of 1000
// dictionary entries. Dictionary space probes the dictionary and serves a
// vectorized dict-id scan; the row path runs upper() over every row.
func BenchmarkDictExprPredicate(b *testing.B) {
	dictExprAB(b, "SELECT count(*), sum(hits) FROM dbench WHERE upper(name) = 'NAME123'")
}

// BenchmarkDictExprGroupBy: an expression group key over the same column.
// Dictionary space translates dict ids through the memo; the row path runs
// lower() over every row and hashes the rendered string.
func BenchmarkDictExprGroupBy(b *testing.B) {
	dictExprAB(b, "SELECT sum(hits), count(*) FROM dbench GROUP BY lower(name) TOP 10")
}

// BenchmarkIDSetFromList scales the list-form idSet constructor with
// cardinality — the regression guard for the O(n²) insertion sort this
// constructor used to hide (dictionary-space predicates hand it lists that
// scale with cardinality, not just the handful an IN list produces).
func BenchmarkIDSetFromList(b *testing.B) {
	for _, card := range []int{1 << 10, 1 << 14, 1 << 17} {
		// Worst case for the old insertion sort: ids arrive descending.
		ids := make([]int, card/2)
		for i := range ids {
			ids[i] = card - 2 - 2*i
		}
		b.Run(fmt.Sprintf("card%d", card), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := idSetFromList(card, ids)
				if s.size() != len(ids) {
					b.Fatal("bad set")
				}
			}
		})
	}
}

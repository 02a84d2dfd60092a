package query

import (
	"context"
	"math/rand"
	"testing"

	"pinot/internal/bitmap"
	"pinot/internal/segment"
)

// drainDocs walks a docIDSet through the block interface, the way the
// vectorized executors consume it.
func drainDocs(s docIDSet, buf []int) int {
	it := s.iterator(new(blockScratch))
	total := 0
	for {
		n := it.nextBlock(buf)
		if n == 0 {
			return total
		}
		total += n
	}
}

func benchBitmaps(numDocs int, density float64, k int) []*bitmap.Bitmap {
	r := rand.New(rand.NewSource(31))
	bms := make([]*bitmap.Bitmap, k)
	for i := range bms {
		bms[i] = bitmap.New()
		for d := 0; d < numDocs; d++ {
			if r.Float64() < density {
				bms[i].Add(uint32(d))
			}
		}
	}
	return bms
}

// BenchmarkBitmapAndCollapse vs BenchmarkBitmapAndLeapfrog: intersecting
// comparably-sized bitmaps with container-level AndAll vs the advance-to-max
// leapfrog over per-bitmap iterators.
func BenchmarkBitmapAndCollapse(b *testing.B) {
	bms := benchBitmaps(1<<20, 0.3, 3)
	buf := make([]int, blockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sets := []docIDSet{
			&bitmapDocIDSet{bm: bms[0]}, &bitmapDocIDSet{bm: bms[1]}, &bitmapDocIDSet{bm: bms[2]},
		}
		collapsed := collapseBitmapChildren(sets, true)
		if len(collapsed) != 1 {
			b.Fatalf("expected collapse, got %d children", len(collapsed))
		}
		drainDocs(collapsed[0], buf)
	}
}

func BenchmarkBitmapAndLeapfrog(b *testing.B) {
	bms := benchBitmaps(1<<20, 0.3, 3)
	buf := make([]int, blockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &andDocIDSet{children: []docIDSet{
			&bitmapDocIDSet{bm: bms[0]}, &bitmapDocIDSet{bm: bms[1]}, &bitmapDocIDSet{bm: bms[2]},
		}}
		drainDocs(s, buf)
	}
}

func BenchmarkBitmapOrCollapse(b *testing.B) {
	bms := benchBitmaps(1<<20, 0.05, 4)
	buf := make([]int, blockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sets := []docIDSet{
			&bitmapDocIDSet{bm: bms[0]}, &bitmapDocIDSet{bm: bms[1]},
			&bitmapDocIDSet{bm: bms[2]}, &bitmapDocIDSet{bm: bms[3]},
		}
		collapsed := collapseBitmapChildren(sets, false)
		drainDocs(collapsed[0], buf)
	}
}

func BenchmarkBitmapOrMerge(b *testing.B) {
	bms := benchBitmaps(1<<20, 0.05, 4)
	buf := make([]int, blockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &orDocIDSet{children: []docIDSet{
			&bitmapDocIDSet{bm: bms[0]}, &bitmapDocIDSet{bm: bms[1]},
			&bitmapDocIDSet{bm: bms[2]}, &bitmapDocIDSet{bm: bms[3]},
		}}
		drainDocs(s, buf)
	}
}

func benchSegments(b *testing.B) []IndexedSegment {
	seg := buildRows(b, testRows(200000, 5), segment.IndexConfig{}, "bench_vec")
	return []IndexedSegment{{Seg: seg}}
}

func benchRun(b *testing.B, q string, opt Options) {
	segs := benchSegments(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ctx, q, segs, nil, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// Scan aggregation over a raw double metric: the typed block kernels.
func BenchmarkScanAggVec(b *testing.B) {
	benchRun(b, "SELECT sum(revenue), max(revenue) FROM events WHERE clicks > 10", Options{})
}

// Single low-cardinality group-by: the dense array-indexed grouper.
func BenchmarkGroupByDenseVec(b *testing.B) {
	benchRun(b, "SELECT sum(clicks) FROM events GROUP BY country TOP 10", Options{})
}

// Multi-column group-by: packed uint64 composite keys.
func BenchmarkGroupByPackedVec(b *testing.B) {
	benchRun(b, "SELECT sum(clicks) FROM events GROUP BY country, browser, memberId TOP 20", Options{})
}

// ---- filter conjunctions over scan leaves ----

// filterFixture is one unindexed segment shaped like a metrics table: a
// 7-bit and a 12-bit dictionary column (80 and 3000 values), a 6-bit one, a
// dictionary-encoded day, a raw long metric and a raw double one. sparse
// holds each value in 1 document of 2000: with sparseInverted it stands in for
// a narrow driver.
func filterFixture(tb testing.TB, name string, n int, cfg segment.IndexConfig) *segment.Segment {
	tb.Helper()
	schema, err := segment.NewSchema("f", []segment.FieldSpec{
		{Name: "narrow", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "wide", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "third", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "sparse", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "hits", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
		{Name: "day", Type: segment.TypeLong, Kind: segment.Time, SingleValue: true},
		{Name: "score", Type: segment.TypeDouble, Kind: segment.Metric, SingleValue: true},
	})
	if err != nil {
		tb.Fatal(err)
	}
	b, err := segment.NewBuilder("f", name, schema, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r := rand.New(rand.NewSource(77))
	for i := 0; i < n; i++ {
		row := segment.Row{int64(r.Intn(80)), int64(r.Intn(3000)), int64(r.Intn(40)),
			int64(r.Intn(2000)), int64(r.Intn(1000)), int64(16000 + r.Intn(40)), float64(i%997) / 4}
		if err := b.Add(row); err != nil {
			tb.Fatal(err)
		}
	}
	seg, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return seg
}

var sparseInverted = segment.IndexConfig{InvertedColumns: []string{"sparse"}}

// drainFilter plans where against seg and walks every match a block at a
// time, as the executors do. It returns the matches and charges stats.
func drainFilter(tb testing.TB, seg segment.Reader, where string, opt Options, stats *Stats) int {
	tb.Helper()
	env := newExecEnv(context.Background(), seg.Name())
	set, err := buildFilter(env, columnSource{seg: seg}, parseWhere(tb, where), opt, stats)
	if err != nil {
		tb.Fatal(err)
	}
	sc := getScratch()
	defer sc.release()
	it := set.iterator(sc)
	total := 0
	buf := sc.docBuf(blockSize)
	for n := it.nextBlock(buf); n > 0; n = it.nextBlock(buf) {
		total += n
	}
	return total
}

// benchFilter reports what one evaluated entry of the filter costs.
func benchFilter(b *testing.B, where string, opt Options) {
	seg := filterFixture(b, "bench_filter", 100000, sparseInverted)
	var stats Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drainFilter(b, seg, where, opt, &stats)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(stats.NumEntriesScanned), "ns/entry")
}

// The conjunctions of scan_groupby: an equality on a 7- or 12-bit column
// drives, a day range (and a third equality) is probed per candidate.
var filterAndShapes = []struct{ name, where string }{
	{"and2/w7", "narrow = 17 AND day BETWEEN 16005 AND 16030"},
	{"and2/w12", "wide BETWEEN 1000 AND 1037 AND day BETWEEN 16005 AND 16030"},
	{"and3/w7", "narrow = 17 AND day BETWEEN 16005 AND 16030 AND third = 9"},
	{"and3/w12", "wide BETWEEN 1000 AND 1037 AND day BETWEEN 16005 AND 16030 AND third = 9"},
}

// BenchmarkFilterAndScanVec: the chunk-decoding scan cursor under the AND
// leapfrog.
func BenchmarkFilterAndScanVec(b *testing.B) {
	for _, s := range filterAndShapes {
		b.Run(s.name, func(b *testing.B) { benchFilter(b, s.where, Options{}) })
	}
}

// BenchmarkFilterSparseDriverVec: a bitmap of about 50 documents drives two
// scan leaves, which must decode a few documents per candidate and not a
// block around each.
func BenchmarkFilterSparseDriverVec(b *testing.B) {
	benchFilter(b, "sparse = 7 AND narrow BETWEEN 10 AND 60 AND hits > 100", Options{})
}

// TestFilterBenchShapes keeps the benchmark predicates honest: the cursor
// and the per-document reference agree on them and the sparse shape really is
// driven by a bitmap.
func TestFilterBenchShapes(t *testing.T) {
	seg := filterFixture(t, "bench_filter", 20000, sparseInverted)
	shapes := append(filterAndShapes[:len(filterAndShapes):len(filterAndShapes)],
		struct{ name, where string }{"sparse", "sparse = 7 AND narrow BETWEEN 10 AND 60 AND hits > 100"})
	for _, s := range shapes {
		var vec, ref Stats
		nv := drainFilter(t, seg, s.where, Options{}, &vec)
		nr := drainDocs(perDocReference(t, columnSource{seg: seg}, parseWhere(t, s.where), &ref), make([]int, blockSize))
		if nv != nr || vec != ref || nv == 0 {
			t.Fatalf("%s: cursor %d docs %+v, reference %d docs %+v", s.name, nv, vec, nr, ref)
		}
	}
	env := newExecEnv(context.Background(), "f")
	set, err := buildFilter(env, columnSource{seg: seg}, parseWhere(t, "sparse = 7"), Options{}, &Stats{})
	if _, ok := set.(*bitmapDocIDSet); !ok || err != nil {
		t.Fatalf("sparse = 7 plans as %T (%v), want a bitmap", set, err)
	}
}

// sanity check so a bad density/cardinality choice can't silently turn the
// collapse benchmarks into measuring the uncollapsed path.
func TestCollapseBenchShapesCollapse(t *testing.T) {
	bms := benchBitmaps(1<<16, 0.3, 3)
	sets := []docIDSet{
		&bitmapDocIDSet{bm: bms[0]}, &bitmapDocIDSet{bm: bms[1]}, &bitmapDocIDSet{bm: bms[2]},
	}
	if got := collapseBitmapChildren(sets, true); len(got) != 1 {
		t.Fatalf("AND collapse produced %d children, want 1", len(got))
	}
}

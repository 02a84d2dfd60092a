package query

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"pinot/internal/pql"
	"pinot/internal/segment"
)

// TestPointLookupDoesNotAllocateBlockScratch: a selection that matches a
// handful of docs through the sorted-column range must not pay for
// blockSize-wide scratch (three slices, 20 KB per segment, before the scratch
// was sized by demand and pooled).
func TestPointLookupDoesNotAllocateBlockScratch(t *testing.T) {
	seg := buildRows(t, testRows(5000, 10), segment.IndexConfig{SortColumn: "memberId"}, "s0")
	segs := []IndexedSegment{{Seg: seg}}
	const q = "SELECT clicks, revenue FROM events WHERE memberId = 11 LIMIT 5"
	if res := runPQL(t, segs, q, Options{}); len(res.Rows) != 5 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	best := queryBytes(t, segs, q)
	t.Logf("%d bytes per query", best)
	if best > 10<<10 {
		t.Fatalf("a five-row lookup allocated %d bytes; the block scratch alone used to be 20 KB", best)
	}
}

// queryBytes returns the least a query allocated over a few runs.
func queryBytes(t *testing.T, segs []IndexedSegment, q string) uint64 {
	t.Helper()
	best := ^uint64(0)
	var m0, m1 runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&m0)
		runPQL(t, segs, q, Options{})
		runtime.ReadMemStats(&m1)
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	return best
}

// TestScanConjunctionReusesChunkBuffers: the scan leaves of a three-leaf
// conjunction over eight segments take their cursors and chunk buffers from
// the execution's scratch, so once a scratch has served such a query, serving
// it again allocates nothing for them. (Measured at the leaves' iterators:
// the AND above them allocates its own few words, and sync.Pool drops
// scratches at random under the race detector.)
func TestScanConjunctionReusesChunkBuffers(t *testing.T) {
	q, err := pql.Parse("SELECT count(*) FROM f WHERE narrow = 17 AND day BETWEEN 16005 AND 16030 AND hits < 300")
	if err != nil {
		t.Fatal(err)
	}
	var leaves []docIDSet
	for i := 0; i < 8; i++ {
		seg := filterFixture(t, fmt.Sprintf("f%d", i), 5000, segment.IndexConfig{})
		env := newExecEnv(context.Background(), seg.Name())
		set, err := buildFilter(env, columnSource{seg: seg}, q.Filter, Options{}, &Stats{})
		if err != nil {
			t.Fatal(err)
		}
		and, ok := set.(*andDocIDSet)
		if !ok || len(and.children) != 3 {
			t.Fatalf("planned as %T, want a three-child AND", set)
		}
		leaves = append(leaves, and.children...)
	}
	sc := new(blockScratch)
	buf := make([]int, blockSize)
	allocs := testing.AllocsPerRun(10, func() {
		for i, leaf := range leaves {
			it := leaf.iterator(sc)
			for it.nextBlock(buf) > 0 {
			}
			if i%3 == 2 {
				sc.cursorsOut = 0 // the next segment: what release does, short of pooling
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("scan leaves served from a used scratch made %v allocations per query", allocs)
	}
}

// TestRangePredicateAllocatesNoCardinalityTable: a range over a sorted
// dictionary is tested by compare. It used to build a []bool the size of the
// dictionary per leaf, per segment, per query: 1 MB here.
func TestRangePredicateAllocatesNoCardinalityTable(t *testing.T) {
	const card = 1000000
	schema, err := segment.NewSchema("c", []segment.FieldSpec{
		{Name: "id", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := segment.NewBuilder("c", "c0", schema, segment.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < card; i++ {
		if err := b.Add(segment.Row{int64(i * 7919 % card)}); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	segs := []IndexedSegment{{Seg: seg}}
	for _, tc := range []struct {
		q    string
		want int64
	}{
		{"SELECT count(*) FROM c WHERE id > 400000", card - 400001},
		{"SELECT count(*) FROM c WHERE id != 400000", card - 1},
	} {
		if res := runPQL(t, segs, tc.q, Options{}); res.Rows[0][0].(int64) != tc.want {
			t.Fatalf("%s = %v, want %d", tc.q, res.Rows[0][0], tc.want)
		}
		got := queryBytes(t, segs, tc.q)
		t.Logf("%s: %d bytes", tc.q, got)
		if got > card/16 {
			t.Fatalf("%s allocated %d bytes over a %d-value dictionary", tc.q, got, card)
		}
	}
}

package query

import (
	"runtime"
	"testing"

	"pinot/internal/segment"
)

// TestScratchReleaseClearsEntries: a pooled scratch must not keep a finished
// query's groups reachable.
func TestScratchReleaseClearsEntries(t *testing.T) {
	sc := &blockScratch{}
	entries := sc.entryBuf(8)
	for i := range entries {
		entries[i] = &GroupEntry{}
	}
	sc.release()
	for i, e := range entries {
		if e != nil {
			t.Fatalf("entry %d survived release", i)
		}
	}
}

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
	best := ^uint64(0)
	var m0, m1 runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&m0)
		runPQL(t, segs, q, Options{})
		runtime.ReadMemStats(&m1)
		if d := m1.TotalAlloc - m0.TotalAlloc; d < best {
			best = d
		}
	}
	t.Logf("%d bytes per query", best)
	if best > 10<<10 {
		t.Fatalf("a five-row lookup allocated %d bytes; the block scratch alone used to be 20 KB", best)
	}
}

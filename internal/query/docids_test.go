package query

import (
	"testing"

	"pinot/internal/bitmap"
	"pinot/internal/segment"
)

// collect drains it three documents at a time.
func collect(it DocIterator) []int {
	var out []int
	buf := make([]int, 3)
	for n := it.nextBlock(buf); n > 0; n = it.nextBlock(buf) {
		out = append(out, buf[:n]...)
	}
	return out
}

func assertDocs(t *testing.T, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("docs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("docs = %v, want %v", got, want)
		}
	}
}

// filterTwice filters the ascending candidates of first, then of second,
// through one iterator: its forward walk carries over between calls.
func filterTwice(t *testing.T, it DocIterator, first, second, want []int) {
	t.Helper()
	got := append([]int(nil), it.filter(append([]int(nil), first...))...)
	assertDocs(t, append(got, it.filter(append([]int(nil), second...))...), want)
}

func TestRangeIterator(t *testing.T) {
	s := &rangeDocIDSet{ranges: []segment.DocRange{{Start: 2, End: 5}, {Start: 8, End: 10}}}
	if s.estimate() != 5 {
		t.Fatalf("estimate = %d", s.estimate())
	}
	assertDocs(t, collect(s.iterator(new(blockScratch))), []int{2, 3, 4, 8, 9})
	filterTwice(t, s.iterator(new(blockScratch)), []int{0, 2, 4, 5}, []int{6, 9, 10, 100}, []int{2, 4, 9})
}

func TestScanIteratorFilter(t *testing.T) {
	var tested []int
	s := &scanDocIDSet{numDocs: 30, match: func(d int) bool { tested = append(tested, d); return d%3 == 0 }}
	filterTwice(t, s.iterator(new(blockScratch)), []int{7, 9, 10}, []int{12, 29}, []int{9, 12})
	assertDocs(t, tested, []int{7, 9, 10, 12, 29})
	// Driving, it tests no document past the last one it returns.
	tested = nil
	buf := make([]int, 2)
	assertDocs(t, buf[:s.iterator(new(blockScratch)).nextBlock(buf)], []int{0, 3})
	assertDocs(t, tested, []int{0, 1, 2, 3})
}

func TestOrIteratorFilter(t *testing.T) {
	var tested []int
	a := &rangeDocIDSet{ranges: []segment.DocRange{{Start: 0, End: 3}}}
	b := &scanDocIDSet{numDocs: 20, match: func(d int) bool { tested = append(tested, d); return d == 10 || d == 15 }}
	c := &bitmapDocIDSet{bm: bitmap.Of(2, 7, 15)}
	or := &orDocIDSet{children: []docIDSet{a, b, c}, numDocs: 20}
	assertDocs(t, collect(or.iterator(new(blockScratch))), []int{0, 1, 2, 7, 10, 15})
	// Each child tests only the candidates no child before it kept.
	tested = nil
	filterTwice(t, or.iterator(new(blockScratch)), []int{1, 5, 7, 8}, []int{10, 15, 19}, []int{1, 7, 10, 15})
	assertDocs(t, tested, []int{5, 7, 8, 10, 15, 19})
}

func TestAndIteratorFilter(t *testing.T) {
	var tested []int
	a := &rangeDocIDSet{ranges: []segment.DocRange{{Start: 0, End: 100}}}
	b := &scanDocIDSet{numDocs: 100, match: func(d int) bool { tested = append(tested, d); return d%5 == 0 }}
	and := newAndDocIDSet([]docIDSet{a, b})
	filterTwice(t, and.iterator(new(blockScratch)), []int{3, 11, 15}, []int{20, 96, 120}, []int{15, 20})
	// The later child tests only what the driver passed, and a round fills
	// the block only when all of it survives: nothing past doc 5 is tested.
	tested = nil
	buf := make([]int, 2)
	assertDocs(t, buf[:and.iterator(new(blockScratch)).nextBlock(buf)], []int{0, 5})
	assertDocs(t, tested, []int{0, 1, 2, 3, 4, 5})
	tested = nil
	assertDocs(t, collect(and.iterator(new(blockScratch))), []int{0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80, 85, 90, 95})
	if len(tested) != 100 {
		t.Fatalf("drained, the scan child tested %d of 100 candidates", len(tested))
	}
}

func TestNotAndEmptySets(t *testing.T) {
	child := &bitmapDocIDSet{bm: bitmap.Of(1, 3)}
	not := &notDocIDSet{child: child, numDocs: 5}
	assertDocs(t, collect(not.iterator(new(blockScratch))), []int{0, 2, 4})
	filterTwice(t, not.iterator(new(blockScratch)), []int{1, 2}, []int{3, 4}, []int{2, 4})
	if not.estimate() != 3 {
		t.Fatalf("estimate = %d", not.estimate())
	}
	e := emptyDocIDSet{}
	if e.estimate() != 0 || collect(e.iterator(new(blockScratch))) != nil {
		t.Fatal("empty set misbehaves")
	}
	if got := (emptyIterator{}).filter([]int{3}); len(got) != 0 {
		t.Fatal("empty filter kept a candidate")
	}
	all := &allDocIDSet{numDocs: 3}
	assertDocs(t, collect(all.iterator(new(blockScratch))), []int{0, 1, 2})
}

func TestIDSetComplementAndMembership(t *testing.T) {
	s := idSetFromRanges(10, idRange{2, 4}, idRange{7, 9})
	if s.size() != 4 || s.isEmpty() || s.isAll() {
		t.Fatalf("shape: size=%d", s.size())
	}
	comp := s.complement()
	var got []int
	comp.each(func(id int) { got = append(got, id) })
	assertDocs(t, got, []int{0, 1, 4, 5, 6, 9})
	for id := 0; id < 10; id++ {
		if s.contains(id) == comp.contains(id) {
			t.Fatalf("complement overlaps at %d", id)
		}
	}
	// List form.
	l := idSetFromList(6, []int{5, 1, 3, 3})
	if l.size() != 3 || !l.contains(3) || l.contains(0) || l.contains(99) {
		t.Fatalf("list set wrong: %+v", l)
	}
	lc := l.complement()
	got = nil
	lc.each(func(id int) { got = append(got, id) })
	assertDocs(t, got, []int{0, 2, 4})
	full := idSetFromRanges(4, idRange{0, 4})
	if !full.isAll() || !full.complement().isEmpty() {
		t.Fatal("full-set algebra wrong")
	}
}

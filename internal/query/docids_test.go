package query

import (
	"testing"

	"pinot/internal/bitmap"
	"pinot/internal/segment"
)

func collect(it DocIterator) []int {
	var out []int
	for d := it.Next(); d >= 0; d = it.Next() {
		out = append(out, d)
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

func TestRangeIterator(t *testing.T) {
	s := &rangeDocIDSet{ranges: []segment.DocRange{{Start: 2, End: 5}, {Start: 8, End: 10}}}
	if s.estimate() != 5 {
		t.Fatalf("estimate = %d", s.estimate())
	}
	assertDocs(t, collect(s.iterator(new(blockScratch))), []int{2, 3, 4, 8, 9})
	it := s.iterator(new(blockScratch))
	if d := it.Advance(4); d != 4 {
		t.Fatalf("Advance(4) = %d", d)
	}
	if d := it.Advance(6); d != 8 {
		t.Fatalf("Advance(6) = %d", d)
	}
	if d := it.Advance(100); d != -1 {
		t.Fatalf("Advance(100) = %d", d)
	}
}

func TestScanIteratorAdvance(t *testing.T) {
	s := &scanDocIDSet{numDocs: 30, match: func(d int) bool { return d%3 == 0 }}
	it := s.iterator(new(blockScratch))
	if d := it.Advance(7); d != 9 {
		t.Fatalf("Advance(7) = %d", d)
	}
	if d := it.Next(); d != 12 {
		t.Fatalf("Next = %d", d)
	}
	if d := it.Advance(29); d != -1 {
		t.Fatalf("Advance(29) = %d", d)
	}
}

func TestOrIteratorAdvance(t *testing.T) {
	a := &rangeDocIDSet{ranges: []segment.DocRange{{Start: 0, End: 3}}}
	b := &scanDocIDSet{numDocs: 20, match: func(d int) bool { return d == 10 || d == 15 }}
	c := &bitmapDocIDSet{bm: bitmap.Of(2, 7, 15)}
	or := &orDocIDSet{children: []docIDSet{a, b, c}}
	assertDocs(t, collect(or.iterator(new(blockScratch))), []int{0, 1, 2, 7, 10, 15})
	it := or.iterator(new(blockScratch))
	if d := it.Advance(8); d != 10 {
		t.Fatalf("Advance(8) = %d", d)
	}
	if d := it.Advance(15); d != 15 {
		t.Fatalf("Advance(15) = %d", d)
	}
	if d := it.Next(); d != -1 {
		t.Fatalf("Next after exhaustion = %d", d)
	}
}

func TestAndIteratorAdvance(t *testing.T) {
	a := &rangeDocIDSet{ranges: []segment.DocRange{{Start: 0, End: 100}}}
	b := &scanDocIDSet{numDocs: 100, match: func(d int) bool { return d%5 == 0 }}
	and := &andDocIDSet{children: []docIDSet{a, b}}
	it := and.iterator(new(blockScratch))
	if d := it.Advance(11); d != 15 {
		t.Fatalf("Advance(11) = %d", d)
	}
	// Advancing backwards is a forward no-op.
	if d := it.Advance(3); d != 20 {
		t.Fatalf("Advance(3) = %d", d)
	}
	// Exhaust.
	if d := it.Advance(96); d != -1 {
		t.Fatalf("Advance(96) = %d", d)
	}
	if d := it.Next(); d != -1 {
		t.Fatalf("Next after exhaustion = %d", d)
	}
}

func TestNotAndEmptySets(t *testing.T) {
	child := &bitmapDocIDSet{bm: bitmap.Of(1, 3)}
	not := &notDocIDSet{child: child, numDocs: 5}
	assertDocs(t, collect(not.iterator(new(blockScratch))), []int{0, 2, 4})
	if not.estimate() != 3 {
		t.Fatalf("estimate = %d", not.estimate())
	}
	e := emptyDocIDSet{}
	if e.estimate() != 0 || collect(e.iterator(new(blockScratch))) != nil {
		t.Fatal("empty set misbehaves")
	}
	if d := (emptyIterator{}).Advance(3); d != -1 {
		t.Fatal("empty advance")
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

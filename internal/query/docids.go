// Package query implements Pinot's per-segment query planning and execution
// (paper sections 3.3.4 and 4.1–4.3): physical filter operators specialized
// per data representation (sorted-column ranges, inverted-index bitmaps,
// forward-index scans), aggregation and group-by execution, star-tree plans,
// metadata-only plans, and the merge of partial results performed at server
// and broker level.
package query

import (
	"cmp"
	"math/bits"
	"slices"

	"pinot/internal/bitmap"
	"pinot/internal/segment"
)

// blockSize is the batch granularity of the vectorized execution path: doc
// ids, dict ids and metric values move through the engine in blocks of this
// many documents.
const blockSize = 1024

// DocIterator is a filter operator at work in one of two roles. A driver walks
// its matching document ids in ascending order, a block at a time
// (nextBlock: the executors, and the first child of an AND). Every child of an
// AND after the driver only tests the candidates the children before it kept
// (filter). An iterator serves one role for its whole life.
type DocIterator interface {
	// nextBlock fills buf with the next matching doc ids and returns how many
	// it wrote; 0 means exhausted. Implementations must evaluate only as many
	// candidate documents as needed to fill buf — never ahead of it — so
	// stats counted per evaluated entry do not depend on how many documents
	// the caller asks for, even when it stops early (selection LIMIT).
	nextBlock(buf []int) int
	// filter keeps the candidates that match, compacting them in place in
	// their order, and returns them. Candidates ascend, within a call and
	// from one call to the next. A leaf that charges entries charges them per
	// candidate it tests.
	filter(cands []int) []int
}

// docIDSet is a physical filter operator: it produces a DocIterator and an
// estimated cardinality used for operator ordering (paper 3.3.4: "physical
// operator selection is done based on an estimated execution cost").
type docIDSet interface {
	// iterator builds the operator's iterator; whatever buffers it decodes
	// through come from the segment execution's pooled scratch.
	iterator(sc *blockScratch) DocIterator
	// estimate returns an upper bound on matching docs; scans that cannot
	// estimate return the segment size.
	estimate() int
}

// walkDense is nextBlock for an operator that no child can drive: every
// document from *next on is a candidate. Windows as long as the room left in
// buf (at most a block: the size kernels read at once) go through it.filter,
// so no document past the last one returned is tested.
func walkDense(it DocIterator, next *int, numDocs int, buf []int) int {
	n := 0
	for n < len(buf) && *next < numDocs {
		cands := buf[n : n+min(len(buf)-n, numDocs-*next, blockSize)]
		for i := range cands {
			cands[i] = *next + i
		}
		*next += len(cands)
		n += len(it.filter(cands))
	}
	return n
}

// without removes from the ascending list a the members of drop, an
// ascending sublist of it, in place.
func without(a, drop []int) []int {
	k, j := 0, 0
	for _, doc := range a {
		if j < len(drop) && drop[j] == doc {
			j++
			continue
		}
		a[k] = doc
		k++
	}
	return a[:k]
}

// ---- range (sorted column) ----

type rangeDocIDSet struct {
	ranges []segment.DocRange // sorted, non-overlapping
}

func (s *rangeDocIDSet) estimate() int {
	n := 0
	for _, r := range s.ranges {
		n += r.End - r.Start
	}
	return n
}

func (s *rangeDocIDSet) iterator(*blockScratch) DocIterator {
	return &rangeIterator{ranges: s.ranges, cur: -1}
}

type rangeIterator struct {
	ranges []segment.DocRange
	ri     int
	cur    int // last returned doc
}

// nextBlock expands ranges arithmetically: no per-doc virtual calls.
func (it *rangeIterator) nextBlock(buf []int) int {
	n := 0
	for n < len(buf) && it.ri < len(it.ranges) {
		r := it.ranges[it.ri]
		doc := it.cur + 1
		if doc < r.Start {
			doc = r.Start
		}
		take := r.End - doc
		if take <= 0 {
			it.ri++
			continue
		}
		if room := len(buf) - n; take > room {
			take = room
		}
		for i := 0; i < take; i++ {
			buf[n+i] = doc + i
		}
		n += take
		it.cur = doc + take - 1
		if it.cur+1 >= r.End {
			it.ri++
		}
	}
	return n
}

// filter walks the ranges forward beside the candidates.
func (it *rangeIterator) filter(cands []int) []int {
	k := 0
	for _, doc := range cands {
		for it.ri < len(it.ranges) && it.ranges[it.ri].End <= doc {
			it.ri++
		}
		if it.ri == len(it.ranges) {
			break
		}
		cands[k] = doc
		k += int(b2u(doc >= it.ranges[it.ri].Start))
	}
	return cands[:k]
}

// ---- bitmap (inverted index) ----

type bitmapDocIDSet struct {
	bm *bitmap.Bitmap
}

func (s *bitmapDocIDSet) estimate() int { return s.bm.Cardinality() }

func (s *bitmapDocIDSet) iterator(sc *blockScratch) DocIterator {
	return &bitmapIterator{it: s.bm.Iterator(), sc: sc, head: -1}
}

type bitmapIterator struct {
	it *bitmap.Iterator
	sc *blockScratch
	// head is filter's walk: the first member at or past the last candidate
	// tested, -1 before the first.
	head int
}

// nextBlock drains whole containers through bitmap.Iterator.NextMany.
func (b *bitmapIterator) nextBlock(buf []int) int {
	vals := b.sc.u32Buf(len(buf))
	got := b.it.NextMany(vals)
	for i, v := range vals[:got] {
		buf[i] = int(v)
	}
	return got
}

// filter walks the members forward beside the candidates.
func (b *bitmapIterator) filter(cands []int) []int {
	k := 0
	for _, doc := range cands {
		if b.head < doc {
			b.it.AdvanceIfNeeded(uint32(doc))
			if !b.it.HasNext() {
				break
			}
			b.head = int(b.it.Next())
		}
		cands[k] = doc
		k += int(b2u(b.head == doc))
	}
	return cands[:k]
}

// ---- scan (forward index) ----

// scanDocIDSet evaluates a predicate per document over the forward index. It
// is the iterator-style fallback of paper section 4.2; under an AND it tests
// only the candidates of the children before it, so it evaluates part of the
// column. A leaf the scan cursor has a kernel for carries it in leaf; the
// others — a multi-value column — carry the per-document match closure,
// walked by scanIterator.
type scanDocIDSet struct {
	numDocs int
	match   func(doc int) bool
	leaf    *scanLeaf
}

func (s *scanDocIDSet) estimate() int { return s.numDocs }

func (s *scanDocIDSet) iterator(sc *blockScratch) DocIterator {
	if s.leaf != nil {
		return sc.cursor(s.leaf, s.numDocs)
	}
	return &scanIterator{n: s.numDocs, match: s.match}
}

type scanIterator struct {
	n     int
	match func(doc int) bool
	next  int
}

func (it *scanIterator) nextBlock(buf []int) int { return walkDense(it, &it.next, it.n, buf) }

func (it *scanIterator) filter(cands []int) []int {
	k := 0
	for _, doc := range cands {
		if it.match(doc) {
			cands[k] = doc
			k++
		}
	}
	return cands[:k]
}

// ---- full range ----

type allDocIDSet struct{ numDocs int }

func (s *allDocIDSet) estimate() int { return s.numDocs }
func (s *allDocIDSet) iterator(*blockScratch) DocIterator {
	return &rangeIterator{ranges: []segment.DocRange{{Start: 0, End: s.numDocs}}, cur: -1}
}

// ---- empty ----

type emptyDocIDSet struct{}

func (emptyDocIDSet) estimate() int                      { return 0 }
func (emptyDocIDSet) iterator(*blockScratch) DocIterator { return emptyIterator{} }

type emptyIterator struct{}

func (emptyIterator) nextBlock(buf []int) int  { return 0 }
func (emptyIterator) filter(cands []int) []int { return cands[:0] }

// ---- AND ----

// andDocIDSet intersects children, kept in ascending estimate order
// (newAndDocIDSet). The first child drives and every later one filters the
// candidates the children before it kept — the range passing of paper section
// 4.2 — so a scan child evaluates only documents within the candidate set.
type andDocIDSet struct {
	children []docIDSet
}

// newAndDocIDSet orders the children by estimate: sorted ranges from the
// physically sorted column first, scans last.
func newAndDocIDSet(children []docIDSet) *andDocIDSet {
	slices.SortStableFunc(children, func(a, b docIDSet) int { return cmp.Compare(a.estimate(), b.estimate()) })
	return &andDocIDSet{children: children}
}

func (s *andDocIDSet) estimate() int { return s.children[0].estimate() }

func (s *andDocIDSet) iterator(sc *blockScratch) DocIterator {
	its := make([]DocIterator, len(s.children))
	for i, c := range s.children {
		its[i] = c.iterator(sc)
	}
	return &andIterator{children: its}
}

type andIterator struct {
	children []DocIterator
}

// nextBlock asks the driver for exactly the room left in buf (at most a
// block) and passes those candidates through every later child in turn, until
// buf is full or the driver is exhausted. buf fills only when a whole round
// survives, so no child tests a document past the last one returned.
func (it *andIterator) nextBlock(buf []int) int {
	n := 0
	for n < len(buf) {
		got := it.children[0].nextBlock(buf[n:min(len(buf), n+blockSize)])
		if got == 0 {
			break
		}
		n += len(filterAll(it.children[1:], buf[n:n+got]))
	}
	return n
}

func (it *andIterator) filter(cands []int) []int { return filterAll(it.children, cands) }

// filterAll passes cands through each filter in turn, stopping at the first
// that keeps none.
func filterAll(filters []DocIterator, cands []int) []int {
	for _, f := range filters {
		if cands = f.filter(cands); len(cands) == 0 {
			break
		}
	}
	return cands
}

// ---- OR ----

type orDocIDSet struct {
	children []docIDSet
	numDocs  int
}

func (s *orDocIDSet) estimate() int {
	n := 0
	for _, c := range s.children {
		n += c.estimate()
	}
	return n
}

func (s *orDocIDSet) iterator(sc *blockScratch) DocIterator {
	its := make([]DocIterator, len(s.children))
	for i, c := range s.children {
		its[i] = c.iterator(sc)
	}
	return &orIterator{children: its, numDocs: s.numDocs, rest: sc.list(), tested: sc.list()}
}

// orIterator walks every document as a candidate when it drives, and as a
// filter lets each child test only the candidates no child before it kept.
type orIterator struct {
	children      []DocIterator
	numDocs, next int
	// rest and tested are pooled lists: the candidates no child has kept yet,
	// and the copy of them the next child compacts.
	rest, tested *[]int
}

func (it *orIterator) nextBlock(buf []int) int { return walkDense(it, &it.next, it.numDocs, buf) }

func (it *orIterator) filter(cands []int) []int {
	rest := append((*it.rest)[:0], cands...)
	*it.rest = rest
	for _, c := range it.children {
		*it.tested = append((*it.tested)[:0], rest...)
		if rest = without(rest, c.filter(*it.tested)); len(rest) == 0 {
			break
		}
	}
	return without(cands, rest)
}

// ---- NOT ----

// notDocIDSet complements a child within [0, numDocs).
type notDocIDSet struct {
	child   docIDSet
	numDocs int
}

func (s *notDocIDSet) estimate() int { return s.numDocs - min(s.child.estimate(), s.numDocs) }

func (s *notDocIDSet) iterator(sc *blockScratch) DocIterator {
	return &notIterator{child: s.child.iterator(sc), numDocs: s.numDocs, tested: sc.list()}
}

// notIterator keeps the candidates its child's filter rejects; when it drives,
// every document is a candidate.
type notIterator struct {
	child         DocIterator
	numDocs, next int
	tested        *[]int // pooled: the copy of the candidates the child compacts
}

func (it *notIterator) nextBlock(buf []int) int { return walkDense(it, &it.next, it.numDocs, buf) }

func (it *notIterator) filter(cands []int) []int {
	*it.tested = append((*it.tested)[:0], cands...)
	return without(cands, it.child.filter(*it.tested))
}

// ---- the scan cursor (vectorized path) ----

// scanKind names the kernel a scan leaf is tested by.
type scanKind uint8

// A driving cursor tests the kinds up to scanExpr when their chunk is decoded,
// into one match bit per document, and the others by the walk, value by value.
// A filtering one tests every kind on the candidates' values.
const (
	scanIDRanges scanKind = iota // dict id inside one of a few ranges: tested in the column
	scanLongIn                   // raw integral metric IN a list
	scanDoubleIn                 // raw float metric IN a list
	scanExpr                     // expression comparison
	scanIDTable                  // dict id in a list-form set: its membership table
	scanLongs                    // raw integral metric against bounds
	scanDoubles                  // raw float metric against bounds
)

// rawTest is a raw-metric predicate as the cursor's typed kernels evaluate
// it: v within [lo, hi], complemented when neg. IN lists carry a membership
// function instead, applied once per decoded value.
type rawTest[T int64 | float64] struct {
	lo, hi T
	neg    bool
	in     func(T) bool
}

// scanLeaf is one scan predicate bound to its column, in the closure-free
// form the cursor's kernels test. Only the fields of its kind are set.
type scanLeaf struct {
	kind scanKind
	col  segment.ColumnReader
	// stats is charged perEntry entries for every document the cursor walks
	// or tests.
	stats    *Stats
	perEntry int64

	idRanges []segment.IDRange
	idTable  []bool
	long     rawTest[int64]
	double   rawTest[float64]
	cmp      *exprCompare
}

// newIDSetLeaf picks the dict-id kernel for a compiled set: range-form sets
// are tested by the column in its own encoding, only list-form sets by their
// membership table over decoded ids.
func newIDSetLeaf(col segment.ColumnReader, set *idSet, stats *Stats) *scanLeaf {
	leaf := &scanLeaf{col: col, stats: stats, perEntry: 1}
	if set.ranges == nil {
		leaf.kind, leaf.idTable = scanIDTable, set.lookup
		return leaf
	}
	leaf.kind = scanIDRanges
	for _, r := range set.ranges {
		leaf.idRanges = append(leaf.idRanges, segment.IDRange{Lo: uint32(r.Lo), Span: uint32(r.Hi - r.Lo)})
	}
	return leaf
}

// scanCursor is the one iterator of every vectorized scan leaf. As a driver
// it decodes the column in chunks of blockSize documents [start, end) where
// it stands, through the ColumnReader range reads, and walks the decoded chunk
// with the leaf's kernel; entries are charged when walked, never when decoded,
// so Stats equal a document-at-a-time scan's to the digit whatever the
// chunking, including when a selection stops mid-chunk. As a filter it reads
// the candidates' values in one batched point read and applies the same test.
//
// Cursors and their buffers live in the pooled blockScratch.
type scanCursor struct {
	leaf       *scanLeaf
	numDocs    int
	pos        int // next document to walk
	start, end int // the decoded chunk

	ids     []uint32
	longs   []int64
	doubles []float64
	// match holds one bit per document of the chunk (or candidate) for the
	// kinds tested at decode.
	match []uint64
	// Expression comparisons: a second side promoted to double, the doc list
	// their kernels take, and the decoded chunk's first failing document,
	// latched only once the walk reaches it — a document-at-a-time scan
	// evaluates no document past the last one it returns.
	doubles2 []float64
	docs     []int
	failDoc  int
	failErr  error
}

func (c *scanCursor) nextBlock(buf []int) int {
	leaf := c.leaf
	n, pos := 0, c.pos
	for n < len(buf) && pos < c.numDocs {
		if pos >= c.end {
			c.decode(pos)
		}
		i, j := pos-c.start, c.end-c.start
		var walked int
		switch leaf.kind {
		case scanIDTable:
			n, walked = walkIDTable(c.ids[i:j], leaf.idTable, pos, buf, n)
		case scanLongs:
			n, walked = walkBounds(c.longs[i:j], leaf.long, pos, buf, n)
		case scanDoubles:
			n, walked = walkBounds(c.doubles[i:j], leaf.double, pos, buf, n)
		default:
			n, walked = walkBits(c.match, i, j, c.start, buf, n)
		}
		pos += walked
		if c.failErr != nil && pos > c.failDoc {
			leaf.cmp.env.fail(c.failErr)
			c.failErr = nil
		}
	}
	if leaf.stats != nil {
		leaf.stats.NumEntriesScanned += int64(pos-c.pos) * leaf.perEntry
	}
	c.pos = pos
	return n
}

// decode makes the chunk that starts at document pos the decoded one.
func (c *scanCursor) decode(pos int) {
	size := min(blockSize, c.numDocs-pos)
	c.start, c.end = pos, pos+size
	leaf := c.leaf
	if leaf.kind <= scanExpr {
		c.match = sized(c.match, (size+63)>>6)
	}
	switch leaf.kind {
	case scanIDRanges:
		leaf.col.DictIDMatches(pos, size, leaf.idRanges, c.match)
	case scanIDTable:
		c.ids = sized(c.ids, size)
		leaf.col.DictIDRange(pos, c.ids)
	case scanLongs:
		c.longs = sized(c.longs, size)
		leaf.col.LongRange(pos, c.longs)
	case scanDoubles:
		c.doubles = sized(c.doubles, size)
		leaf.col.DoubleRange(pos, c.doubles)
	case scanLongIn:
		c.longs = sized(c.longs, size)
		leaf.col.LongRange(pos, c.longs)
		setBits(c.longs, leaf.long.in, c.match)
	case scanDoubleIn:
		c.doubles = sized(c.doubles, size)
		leaf.col.DoubleRange(pos, c.doubles)
		setBits(c.doubles, leaf.double.in, c.match)
	case scanExpr:
		c.docs = sized(c.docs, size)
		for i := range c.docs {
			c.docs[i] = pos + i
		}
		row, err := leaf.cmp.eval(c, c.docs)
		c.failDoc, c.failErr = pos+row, err
	}
}

// setBits sets bit i of match when in(vals[i]), and clears the others.
func setBits[T int64 | float64](vals []T, in func(T) bool, match []uint64) {
	clear(match)
	for i, v := range vals {
		if in(v) {
			match[i>>6] |= 1 << (i & 63)
		}
	}
}

// filter tests the leaf at the candidates only: one batched point read of
// their values and the kind's test, with nothing decoded around them.
func (c *scanCursor) filter(cands []int) []int {
	leaf, n := c.leaf, len(cands)
	if leaf.stats != nil {
		leaf.stats.NumEntriesScanned += int64(n) * leaf.perEntry
	}
	if n == 0 {
		return cands
	}
	switch leaf.kind {
	case scanIDRanges, scanIDTable:
		c.ids = sized(c.ids, n)
		leaf.col.DictIDs(cands, c.ids)
		if leaf.kind == scanIDTable {
			return keepIDTable(cands, c.ids, leaf.idTable)
		}
		return keepIDRanges(cands, c.ids, leaf.idRanges)
	case scanLongs, scanLongIn:
		c.longs = sized(c.longs, n)
		leaf.col.Longs(cands, c.longs)
		return keepRaw(cands, c.longs, leaf.long)
	case scanDoubles, scanDoubleIn:
		c.doubles = sized(c.doubles, n)
		leaf.col.Doubles(cands, c.doubles)
		return keepRaw(cands, c.doubles, leaf.double)
	}
	c.match = sized(c.match, (n+63)>>6)
	if _, err := leaf.cmp.eval(c, cands); err != nil {
		leaf.cmp.env.fail(err)
	}
	k := 0
	for i, doc := range cands {
		cands[k] = doc
		k += int(c.match[i>>6] >> (i & 63) & 1)
	}
	return cands[:k]
}

// The keep kernels compact the candidates whose value, vals[i] for cands[i],
// passes the leaf's test, without a branch on the outcome.

func keepIDRanges(cands []int, ids []uint32, ranges []segment.IDRange) []int {
	k := 0
	if len(ranges) == 1 {
		lo, span := ranges[0].Lo, ranges[0].Span
		for i, id := range ids {
			cands[k] = cands[i]
			k += int(b2u(id-lo < span))
		}
		return cands[:k]
	}
	for i, id := range ids {
		in := false
		for _, r := range ranges {
			in = in || id-r.Lo < r.Span
		}
		cands[k] = cands[i]
		k += int(b2u(in))
	}
	return cands[:k]
}

func keepIDTable(cands []int, ids []uint32, table []bool) []int {
	k := 0
	for i, id := range ids {
		cands[k] = cands[i]
		k += int(b2u(table[id]))
	}
	return cands[:k]
}

// keepRaw tests bounds with negated compares, as walkBounds does.
func keepRaw[T int64 | float64](cands []int, vals []T, t rawTest[T]) []int {
	k := 0
	if t.in != nil {
		for i, v := range vals {
			cands[k] = cands[i]
			k += int(b2u(t.in(v)))
		}
		return cands[:k]
	}
	lo, hi, neg := t.lo, t.hi, t.neg
	for i, v := range vals {
		cands[k] = cands[i]
		k += int(b2u((!(v < lo) && !(v > hi)) != neg))
	}
	return cands[:k]
}

// The walk kernels test the values of documents base, base+1, … in turn,
// append each matching document to buf[n:] and stop when buf is full. They
// return the new n and how many values they consumed.

func walkIDTable(ids []uint32, table []bool, base int, buf []int, n int) (int, int) {
	for i, id := range ids {
		if table[id] {
			buf[n] = base + i
			n++
			if n == len(buf) {
				return n, i + 1
			}
		}
	}
	return n, len(ids)
}

// walkBounds tests with negated compares so that a NaN — which
// segment.CompareValues calls equal to everything — is inside every pair of
// bounds.
func walkBounds[T int64 | float64](vals []T, t rawTest[T], base int, buf []int, n int) (int, int) {
	lo, hi, neg := t.lo, t.hi, t.neg
	for i, v := range vals {
		if (!(v < lo) && !(v > hi)) != neg {
			buf[n] = base + i
			n++
			if n == len(buf) {
				return n, i + 1
			}
		}
	}
	return n, len(vals)
}

// walkBits is the walk of the kinds tested at decode: it emits document
// base+b for each set bit b of match in [i, j), whose bits at and past j are
// clear, and consumes bits, not values.
func walkBits(match []uint64, i, j, base int, buf []int, n int) (int, int) {
	wi := i >> 6
	m := match[wi] &^ (1<<(i&63) - 1)
	for {
		for ; m != 0; m &= m - 1 {
			b := wi<<6 | bits.TrailingZeros64(m)
			buf[n] = base + b
			n++
			if n == len(buf) {
				return n, b + 1 - i
			}
		}
		if wi++; wi<<6 >= j {
			return n, j - i
		}
		m = match[wi]
	}
}

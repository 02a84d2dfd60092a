// Package query implements Pinot's per-segment query planning and execution
// (paper sections 3.3.4 and 4.1–4.3): physical filter operators specialized
// per data representation (sorted-column ranges, inverted-index bitmaps,
// forward-index scans), aggregation and group-by execution, star-tree plans,
// metadata-only plans, and the merge of partial results performed at server
// and broker level.
package query

import (
	"math/bits"
	"sort"

	"pinot/internal/bitmap"
	"pinot/internal/segment"
)

// blockSize is the batch granularity of the vectorized execution path: doc
// ids, dict ids and metric values move through the engine in blocks of this
// many documents.
const blockSize = 1024

// DocIterator walks matching document ids in ascending order, one at a time
// (Next, Advance — the AND/OR leapfrog) or a block at a time (nextBlock — the
// vectorized executors). The three may be mixed on one iterator.
type DocIterator interface {
	// Next returns the next matching doc id, or -1 when exhausted.
	Next() int
	// Advance returns the first matching doc id >= target, or -1.
	Advance(target int) int
	// nextBlock fills buf with the next matching doc ids and returns how many
	// it wrote; 0 means exhausted. Implementations must evaluate only as many
	// candidate documents as needed to fill buf — never ahead of it — so
	// stats counted per evaluated entry do not depend on how many documents
	// the caller asks for, even when it stops early (selection LIMIT).
	nextBlock(buf []int) int
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

// fillByNext is nextBlock for iterators that find their matches one at a
// time: it costs a call per match, which is what their Next costs anyway.
func fillByNext(it DocIterator, buf []int) int {
	n := 0
	for n < len(buf) {
		doc := it.Next()
		if doc < 0 {
			break
		}
		buf[n] = doc
		n++
	}
	return n
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

func (it *rangeIterator) Next() int {
	doc := it.cur + 1
	for it.ri < len(it.ranges) {
		r := it.ranges[it.ri]
		if doc < r.Start {
			doc = r.Start
		}
		if doc < r.End {
			it.cur = doc
			return doc
		}
		it.ri++
	}
	return -1
}

func (it *rangeIterator) Advance(target int) int {
	if target <= it.cur {
		return it.Next()
	}
	it.cur = target - 1
	for it.ri < len(it.ranges) && it.ranges[it.ri].End <= target {
		it.ri++
	}
	return it.Next()
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

// ---- bitmap (inverted index) ----

type bitmapDocIDSet struct {
	bm *bitmap.Bitmap
}

func (s *bitmapDocIDSet) estimate() int { return s.bm.Cardinality() }

func (s *bitmapDocIDSet) iterator(sc *blockScratch) DocIterator {
	return &bitmapIterator{it: s.bm.Iterator(), sc: sc}
}

type bitmapIterator struct {
	it *bitmap.Iterator
	sc *blockScratch
}

func (b *bitmapIterator) Next() int {
	if !b.it.HasNext() {
		return -1
	}
	return int(b.it.Next())
}

func (b *bitmapIterator) Advance(target int) int {
	if target < 0 {
		target = 0
	}
	b.it.AdvanceIfNeeded(uint32(target))
	return b.Next()
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

// ---- scan (forward index) ----

// scanDocIDSet evaluates a predicate per document over the forward index. It
// is the iterator-style fallback of paper section 4.2; And intersections
// drive it from narrower operators so it only evaluates part of the column.
// A leaf the scan cursor has a kernel for carries it in leaf; the others — a
// multi-value column, a comparison with an interpreted side — carry the
// per-document match closure, walked by scanIterator.
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
	return &scanIterator{n: s.numDocs, match: s.match, cur: -1}
}

type scanIterator struct {
	n     int
	match func(doc int) bool
	cur   int
}

func (it *scanIterator) Next() int {
	for doc := it.cur + 1; doc < it.n; doc++ {
		if it.match(doc) {
			it.cur = doc
			return doc
		}
	}
	it.cur = it.n
	return -1
}

func (it *scanIterator) Advance(target int) int {
	if target > it.cur+1 {
		it.cur = target - 1
	}
	return it.Next()
}

func (it *scanIterator) nextBlock(buf []int) int { return fillByNext(it, buf) }

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

func (emptyIterator) Next() int               { return -1 }
func (emptyIterator) Advance(target int) int  { return -1 }
func (emptyIterator) nextBlock(buf []int) int { return 0 }

// ---- AND ----

// andDocIDSet intersects children. Iteration is driven by the child with the
// smallest estimate (sorted ranges from the physically sorted column first),
// so scan children only evaluate documents within the candidate set — the
// range-passing optimization of paper section 4.2.
type andDocIDSet struct {
	children []docIDSet
}

func (s *andDocIDSet) estimate() int {
	min := int(^uint(0) >> 1)
	for _, c := range s.children {
		if e := c.estimate(); e < min {
			min = e
		}
	}
	return min
}

func (s *andDocIDSet) iterator(sc *blockScratch) DocIterator {
	children := append([]docIDSet(nil), s.children...)
	sort.SliceStable(children, func(i, j int) bool { return children[i].estimate() < children[j].estimate() })
	its := make([]DocIterator, len(children))
	heads := make([]int, len(children))
	for i, c := range children {
		its[i] = c.iterator(sc)
		heads[i] = -1
	}
	return &andIterator{children: its, heads: heads, cur: -1}
}

// andIterator leapfrogs its children. heads caches each child's last
// returned doc so a child is only advanced with targets strictly beyond it —
// the underlying iterators are forward-only. The leapfrog is per candidate in
// every mode — it decides which entries a scan child evaluates, and Stats
// count those — while a scan child answers each Advance from its decoded
// chunk.
type andIterator struct {
	children  []DocIterator
	heads     []int
	cur       int
	exhausted bool
}

func (it *andIterator) Next() int { return it.Advance(it.cur + 1) }

func (it *andIterator) Advance(target int) int {
	if it.exhausted {
		return -1
	}
	if target <= it.cur {
		target = it.cur + 1
	}
	for {
		if it.heads[0] < target {
			it.heads[0] = it.children[0].Advance(target)
		}
		candidate := it.heads[0]
		if candidate < 0 {
			it.exhausted = true
			return -1
		}
		agreed := true
		for i := 1; i < len(it.children); i++ {
			if it.heads[i] < candidate {
				it.heads[i] = it.children[i].Advance(candidate)
			}
			if it.heads[i] < 0 {
				it.exhausted = true
				return -1
			}
			if it.heads[i] > candidate {
				target = it.heads[i]
				agreed = false
				break
			}
		}
		if agreed {
			it.cur = candidate
			return candidate
		}
	}
}

func (it *andIterator) nextBlock(buf []int) int { return fillByNext(it, buf) }

// ---- OR ----

type orDocIDSet struct {
	children []docIDSet
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
	heads := make([]int, len(s.children))
	for i, c := range s.children {
		its[i] = c.iterator(sc)
		heads[i] = its[i].Next()
	}
	return &orIterator{children: its, heads: heads, cur: -1}
}

type orIterator struct {
	children []DocIterator
	heads    []int // current head per child, -1 when exhausted
	cur      int
}

func (it *orIterator) Next() int { return it.Advance(it.cur + 1) }

func (it *orIterator) Advance(target int) int {
	if target <= it.cur {
		target = it.cur + 1
	}
	min := -1
	for i, h := range it.heads {
		if h >= 0 && h < target {
			h = it.children[i].Advance(target)
			it.heads[i] = h
		}
		if h >= 0 && (min < 0 || h < min) {
			min = h
		}
	}
	if min < 0 {
		return -1
	}
	it.cur = min
	return min
}

func (it *orIterator) nextBlock(buf []int) int { return fillByNext(it, buf) }

// ---- NOT ----

// notDocIDSet complements a child within [0, numDocs) by materializing it.
type notDocIDSet struct {
	child   docIDSet
	numDocs int
}

func (s *notDocIDSet) estimate() int { return s.numDocs - min(s.child.estimate(), s.numDocs) }

func (s *notDocIDSet) iterator(sc *blockScratch) DocIterator {
	bm := materialize(s.child, sc)
	return (&bitmapDocIDSet{bm: bitmap.FlipRange(bm, 0, uint32(s.numDocs))}).iterator(sc)
}

// materialize converts any doc-id set into a bitmap, draining the set a
// block at a time into container-wide appends. It runs to completion inside
// iterator(), before the executor takes the scratch's doc buffer for its own
// blocks, so the two can share it.
func materialize(s docIDSet, sc *blockScratch) *bitmap.Bitmap {
	if b, ok := s.(*bitmapDocIDSet); ok {
		return b.bm
	}
	bm := bitmap.New()
	it := s.iterator(sc)
	docs := sc.docBuf(blockSize)
	for {
		n := it.nextBlock(docs)
		if n == 0 {
			return bm
		}
		vals := sc.u32Buf(n)
		for i, doc := range docs[:n] {
			vals[i] = uint32(doc)
		}
		bm.AddMany(vals)
	}
}

// ---- the scan cursor (vectorized path) ----

// scanKind names the kernel a scan leaf is tested by.
type scanKind uint8

// The kinds up to scanExpr are tested when their chunk is decoded, into one
// match bit per document; the others are tested by the walk, value by value.
const (
	scanIDRanges scanKind = iota // dict id inside one of a few ranges: tested in the column
	scanLongIn                   // raw integral metric IN a list
	scanDoubleIn                 // raw float metric IN a list
	scanExpr                     // compiled expression comparison
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
	// stats is charged perEntry entries for every document the cursor walks.
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

const (
	// minDecodeAhead is how many documents the cursor decodes where a jump
	// lands; a leaf probed by a sparse driver walks a handful of documents per
	// candidate and would waste a whole block decoded around each.
	minDecodeAhead = 8
	// scanJumpDocs is how far past its decoded chunk a cursor may be sent and
	// still count as walking the column densely.
	scanJumpDocs = 32
)

// scanCursor is the one iterator of every vectorized scan leaf. It decodes
// the column in chunks of documents [start, end) through the ColumnReader
// range reads and answers Next, Advance and nextBlock by walking the decoded
// chunk with the leaf's kernel.
//
// Decode-ahead follows the access pattern: a chunk starts where the walk
// stands (documents a leapfrog skipped are never decoded), is minDecodeAhead
// long after a jump, and doubles up to blockSize while the next chunk begins
// within scanJumpDocs of the last one's end. So the driving child of an AND
// and a top-level scan run at block granularity, and a child probed every
// few hundred documents decodes a few documents per probe.
//
// Entries are charged when walked, never when decoded, so Stats equal a
// document-at-a-time scan's to the digit whatever the chunking, including
// when a selection stops mid-chunk.
//
// Cursors and their chunk buffers live in the pooled blockScratch.
type scanCursor struct {
	leaf       *scanLeaf
	numDocs    int
	pos        int // next document to walk
	start, end int // the decoded chunk
	ahead      int // length the last chunk was asked for
	one        [1]int

	ids     []uint32
	longs   []int64
	doubles []float64
	// match holds one bit per document of the chunk for the kinds tested at
	// decode.
	match []uint64
	// Expression comparisons decode both sides: the second side and the doc
	// list their kernels take.
	longs2   []int64
	doubles2 []float64
	docs     []int
}

func (c *scanCursor) Next() int {
	if c.nextBlock(c.one[:]) == 0 {
		return -1
	}
	return c.one[0]
}

func (c *scanCursor) Advance(target int) int {
	if target > c.pos {
		c.pos = target
	}
	return c.Next()
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
	}
	if leaf.stats != nil {
		leaf.stats.NumEntriesScanned += int64(pos-c.pos) * leaf.perEntry
	}
	c.pos = pos
	return n
}

// decode makes the chunk that starts at document pos the decoded one.
func (c *scanCursor) decode(pos int) {
	if c.ahead > 0 && pos-c.end < scanJumpDocs {
		c.ahead = min(2*c.ahead, blockSize)
	} else {
		c.ahead = minDecodeAhead
	}
	size := min(c.ahead, c.numDocs-pos)
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
		clear(c.match)
		for i, v := range c.longs {
			if leaf.long.in(v) {
				c.match[i>>6] |= 1 << (i & 63)
			}
		}
	case scanDoubleIn:
		c.doubles = sized(c.doubles, size)
		leaf.col.DoubleRange(pos, c.doubles)
		clear(c.match)
		for i, v := range c.doubles {
			if leaf.double.in(v) {
				c.match[i>>6] |= 1 << (i & 63)
			}
		}
	case scanExpr:
		c.docs = sized(c.docs, size)
		for i := range c.docs {
			c.docs[i] = pos + i
		}
		leaf.cmp.eval(c)
	}
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

package query

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"pinot/internal/pql"
	"pinot/internal/segment"
)

// countingColumn counts how a filter reads a column: per-document calls,
// values decoded or tested in place through the range and block reads, and
// dictionary values looked up by id.
type countingColumn struct {
	segment.ColumnReader
	perDoc  int
	decoded int
	values  int
}

func (c *countingColumn) Value(id int) any {
	c.values++
	return c.ColumnReader.Value(id)
}

func (c *countingColumn) DictID(doc int) int {
	c.perDoc++
	return c.ColumnReader.DictID(doc)
}

func (c *countingColumn) Long(doc int) int64 {
	c.perDoc++
	return c.ColumnReader.Long(doc)
}

func (c *countingColumn) Double(doc int) float64 {
	c.perDoc++
	return c.ColumnReader.Double(doc)
}

func (c *countingColumn) DictIDRange(start int, dst []uint32) {
	c.decoded += len(dst)
	c.ColumnReader.DictIDRange(start, dst)
}

func (c *countingColumn) DictIDMatches(start, n int, ranges []segment.IDRange, dst []uint64) {
	c.decoded += n
	c.ColumnReader.DictIDMatches(start, n, ranges, dst)
}

func (c *countingColumn) LongRange(start int, dst []int64) {
	c.decoded += len(dst)
	c.ColumnReader.LongRange(start, dst)
}

func (c *countingColumn) DoubleRange(start int, dst []float64) {
	c.decoded += len(dst)
	c.ColumnReader.DoubleRange(start, dst)
}

func (c *countingColumn) DictIDs(docs []int, dst []uint32) {
	c.decoded += len(docs)
	c.ColumnReader.DictIDs(docs, dst)
}

func (c *countingColumn) Longs(docs []int, dst []int64) {
	c.decoded += len(docs)
	c.ColumnReader.Longs(docs, dst)
}

func (c *countingColumn) Doubles(docs []int, dst []float64) {
	c.decoded += len(docs)
	c.ColumnReader.Doubles(docs, dst)
}

type countingSegment struct {
	segment.Reader
	cols map[string]*countingColumn
}

func (s *countingSegment) Column(name string) segment.ColumnReader {
	if c, ok := s.cols[name]; ok {
		return c
	}
	inner := s.Reader.Column(name)
	if inner == nil {
		return nil
	}
	c := &countingColumn{ColumnReader: inner}
	s.cols[name] = c
	return c
}

func counting(seg segment.Reader) *countingSegment {
	return &countingSegment{Reader: seg, cols: map[string]*countingColumn{}}
}

// TestScanConjunctionDecodesBlocks: a conjunction of two scan leaves reads
// neither column a document at a time, and the driving leaf decodes no value
// twice.
func TestScanConjunctionDecodesBlocks(t *testing.T) {
	const n = 100000
	seg := filterFixture(t, "shape", n, segment.IndexConfig{})
	for _, tc := range []struct{ where, driver, probed string }{
		{"narrow = 17 AND day BETWEEN 16005 AND 16030", "narrow", "day"},
		{"narrow = 17 AND hits BETWEEN 100 AND 700", "narrow", "hits"},
	} {
		cs := counting(seg)
		var stats Stats
		if drainFilter(t, cs, tc.where, Options{}, &stats) == 0 {
			t.Fatalf("%s: no matches", tc.where)
		}
		driver, probed := cs.cols[tc.driver], cs.cols[tc.probed]
		if driver.perDoc != 0 || probed.perDoc != 0 {
			t.Fatalf("%s: %d + %d per-document reads on the vectorized path", tc.where, driver.perDoc, probed.perDoc)
		}
		if driver.decoded == 0 || driver.decoded > n {
			t.Fatalf("%s: driver decoded %d values of a %d-document column", tc.where, driver.decoded, n)
		}
		// The probed leaf is sent to a candidate every ~80 documents and
		// must not decode the whole column to answer.
		if probed.decoded == 0 || probed.decoded > n/2 {
			t.Fatalf("%s: probed leaf decoded %d values for %d entries", tc.where, probed.decoded, stats.NumEntriesScanned)
		}
	}
}

// TestSparseDriverDecodesNearCandidates: under a driver of a few dozen
// documents a scan leaf decodes a few documents per candidate, never a block
// around each. No benchmark workload has this shape.
func TestSparseDriverDecodesNearCandidates(t *testing.T) {
	const n = 100000
	for _, tc := range []struct {
		name, driver string
		cfg          segment.IndexConfig
	}{
		{"bitmap", "sparse = 7", sparseInverted},
		{"sorted range", "wide = 1000", segment.IndexConfig{SortColumn: "wide"}},
	} {
		seg := filterFixture(t, "sparse", n, tc.cfg)
		var stats Stats
		candidates := drainFilter(t, seg, tc.driver, Options{}, &stats)
		if candidates < 10 || candidates > 100 {
			t.Fatalf("%s: driver matches %d docs, want a few dozen", tc.name, candidates)
		}
		cs := counting(seg)
		drainFilter(t, cs, tc.driver+" AND narrow BETWEEN 10 AND 60", Options{}, &stats)
		if got, limit := cs.cols["narrow"].decoded, 16*candidates+2*blockSize; got == 0 || got > limit {
			t.Fatalf("%s: %d candidates made the scan leaf decode %d values, limit %d", tc.name, candidates, got, limit)
		}
	}
}

// cursorLeaves names every kind of leaf the scan cursor serves, over the
// columns of filterFixture.
var cursorLeaves = []string{
	"narrow = 17",                  // one dict-id range
	"narrow != 17",                 // two ranges
	"third BETWEEN 5 AND 30",       // wide range
	"narrow IN (3, 17, 40)",        // membership table
	"narrow NOT IN (3, 17, 40)",    // complemented table
	"hits < 40",                    // raw long bounds
	"hits BETWEEN 100 AND 120",     //
	"hits != 7",                    //
	"hits IN (1, 2, 3, 500)",       // raw long list
	"score > 200.5",                // raw double bounds
	"score BETWEEN 10.25 AND 12.5", //
	"score != 3.25",                //
	"score NOT IN (0.25, 1.5, 99)", // raw double list
	"hits + third > 1020",          // compiled expression comparison, long
	"score * 2 < hits",             // … and double
	"timeBucket(day, 7) = 16002",   //
}

// cursorDefaultLeaves are the leaves that scan bonus, a raw metric the
// segment predates. (A default dimension holds one value, so a predicate on it
// matches every document or none and never scans.)
var cursorDefaultLeaves = []string{
	"bonus >= 0",
	"bonus != 0",
	"bonus IN (0, 5)",
	"bonus + hits > 500",
	"score < bonus + 100",
}

// cursorSource is one kind of segment a scan leaf runs over.
type cursorSource struct {
	name   string
	cs     columnSource
	leaves []string
}

// cursorSources builds the three segment kinds: an immutable segment, a
// snapshot of a consuming one taken at its first quarter while a writer goes
// on appending beside every read of it, and the immutable one read through a
// schema that has since gained a column.
func cursorSources(tb testing.TB, n int) []cursorSource {
	tb.Helper()
	imm := filterFixture(tb, "imm", n, segment.IndexConfig{})
	rt, err := segment.NewMutableSegment("f", "rt", imm.Schema(), segment.IndexConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	for doc := 0; doc < n/4; doc++ {
		if err := rt.Add(segment.ReadRow(imm, doc)); err != nil {
			tb.Fatal(err)
		}
	}
	snap := rt.Snapshot()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for doc := n / 4; doc < 16*n; doc++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := rt.Add(segment.ReadRow(imm, doc%n)); err != nil {
				tb.Error(err)
				return
			}
			runtime.Gosched() // a row between the readers' steps, for as long as they run
		}
	}()
	tb.Cleanup(func() { close(stop); <-done })
	evolved, err := imm.Schema().WithColumn(segment.FieldSpec{
		Name: "bonus", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return []cursorSource{
		{"immutable", columnSource{seg: imm}, cursorLeaves},
		{"consuming", columnSource{seg: snap}, cursorLeaves},
		{"default column", columnSource{seg: imm, schema: evolved}, cursorDefaultLeaves},
	}
}

// cursorOp is one call on a DocIterator: Next, Advance(last returned + arg)
// or nextBlock into arg slots.
type cursorOp struct{ kind, arg int }

// parseWhere returns the filter of a count(*) over where.
func parseWhere(tb testing.TB, where string) pql.Predicate {
	q, err := pql.Parse("SELECT count(*) FROM f WHERE " + where)
	if err != nil {
		tb.Fatal(err)
	}
	return q.Filter
}

// perDocReference plans pred as the engine does, except that every scan leaf
// the cursor would walk becomes the oracle's test of the same predicate,
// asked document by document through the production scanIterator and charged
// the leaf's perEntry entries per document asked. An AND is planned child by
// child, so its leapfrog probes the reference leaves where it probes cursors.
func perDocReference(tb testing.TB, cs columnSource, pred pql.Predicate, stats *Stats) docIDSet {
	if and, ok := pred.(pql.And); ok {
		children := make([]docIDSet, len(and.Children))
		for i, c := range and.Children {
			children[i] = perDocReference(tb, cs, c, stats)
		}
		return &andDocIDSet{children: children}
	}
	set, err := buildFilter(newExecEnv(context.Background(), cs.seg.Name()), cs, pred, ForceRungs(Options{}, false, true), stats)
	if err != nil {
		tb.Fatal(err)
	}
	sds, ok := set.(*scanDocIDSet)
	if !ok || sds.leaf == nil {
		return set
	}
	match, err := NewOracle(nil, cs.schema).filter(cs.seg, pred)
	if err != nil {
		tb.Fatal(err)
	}
	return &scanDocIDSet{numDocs: sds.numDocs, match: func(doc int) bool {
		stats.NumEntriesScanned += sds.leaf.perEntry
		return match(doc)
	}}
}

// checkCursorOps plans where on src and drives its scan cursor and the
// per-document reference through the calls nextOp yields, until it stops or
// the iterators are exhausted: same documents, same Stats after every call,
// whatever chunking the calls provoke.
func checkCursorOps(t *testing.T, src cursorSource, where string, nextOp func() (cursorOp, bool)) {
	t.Helper()
	pred := parseWhere(t, where)
	var vecStats, refStats Stats
	env := newExecEnv(context.Background(), src.cs.seg.Name())
	vecSet, err := buildFilter(env, src.cs, pred, ForceRungs(Options{}, false, true), &vecStats)
	if err != nil {
		t.Fatal(err)
	}
	if sds, ok := vecSet.(*scanDocIDSet); !ok || sds.leaf == nil {
		t.Fatalf("%s on %s: planned as %T, want a cursor leaf", where, src.name, vecSet)
	}
	sc := getScratch()
	defer sc.release()
	vec, ref := vecSet.iterator(sc), perDocReference(t, src.cs, pred, &refStats).iterator(sc)
	last := -1
	for step := 0; ; step++ {
		op, ok := nextOp()
		if !ok {
			return
		}
		var got, want []int
		switch op.kind {
		case 0:
			got, want = []int{vec.Next()}, []int{ref.Next()}
		case 1:
			got, want = []int{vec.Advance(last + op.arg)}, []int{ref.Advance(last + op.arg)}
		default:
			gb, wb := make([]int, op.arg), make([]int, op.arg)
			got, want = gb[:vec.nextBlock(gb)], wb[:ref.nextBlock(wb)]
		}
		assertDocs(t, got, want)
		if vecStats != refStats {
			t.Fatalf("%s on %s, step %d (%+v): stats %+v, reference %+v", where, src.name, step, op, vecStats, refStats)
		}
		if len(want) == 0 || want[len(want)-1] < 0 {
			return
		}
		last = want[len(want)-1]
	}
}

// TestScanCursorMatchesScalarIterator drives the cursor of every leaf kind,
// on every segment kind, and the per-document reference's scanIterator through
// seeded random mixes of Next, Advance and nextBlock, each until the leaf is
// exhausted.
func TestScanCursorMatchesScalarIterator(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, src := range cursorSources(t, 20000) {
		for _, where := range src.leaves {
			for trial := 0; trial < 4; trial++ {
				checkCursorOps(t, src, where, func() (cursorOp, bool) {
					kind := r.Intn(3)
					if kind == 1 {
						// Short hops, in-chunk jumps and jumps past any chunk;
						// a target at the position itself means Next.
						return cursorOp{kind, r.Intn([]int{2, 40, 3000}[r.Intn(3)])}, true
					}
					return cursorOp{kind, 1 + r.Intn(2*blockSize)}, true
				})
			}
		}
	}
}

// FuzzScanCursor lets the input pick the leaf, the segment kind and the call
// sequence: byte 0 the segment kind, byte 1 the leaf, then two bytes per call
// — the first picks the call and the scale of its argument (1, 16 or 256),
// the second the argument. The seeds are every case of
// TestScanCursorMatchesScalarIterator under one fixed sequence.
func FuzzScanCursor(f *testing.F) {
	srcs := cursorSources(f, 6000)
	calls := []byte{2, 7, 0, 0, 1, 3, 4, 9, 5, 200, 1, 0, 7, 2, 8, 255, 0, 0, 4, 40, 2, 1, 5, 255}
	for s, src := range srcs {
		for l := range src.leaves {
			f.Add(append([]byte{byte(s), byte(l)}, calls...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		src := srcs[int(data[0])%len(srcs)]
		where := src.leaves[int(data[1])%len(src.leaves)]
		data = data[2:]
		checkCursorOps(t, src, where, func() (cursorOp, bool) {
			if len(data) < 2 {
				return cursorOp{}, false
			}
			b, arg := int(data[0]), int(data[1])
			data = data[2:]
			arg *= []int{1, 16, 256}[b/3%3]
			if kind := b % 3; kind != 2 {
				return cursorOp{kind, arg}, true
			}
			return cursorOp{2, 1 + arg%(2*blockSize)}, true
		})
	})
}

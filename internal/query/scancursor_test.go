package query

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"strings"
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
// neither column a document at a time; the driving leaf decodes every value
// once, and the probed leaf reads exactly the driver's candidates.
func TestScanConjunctionDecodesBlocks(t *testing.T) {
	const n = 100000
	seg := filterFixture(t, "shape", n, segment.IndexConfig{})
	for _, tc := range []struct{ where, driver, probed string }{
		{"narrow = 17 AND day BETWEEN 16005 AND 16030", "narrow", "day"},
		{"narrow = 17 AND hits BETWEEN 100 AND 700", "narrow", "hits"},
	} {
		var stats Stats
		candidates := drainFilter(t, seg, tc.driver+" = 17", Options{}, &stats)
		cs := counting(seg)
		if drainFilter(t, cs, tc.where, Options{}, &stats) == 0 {
			t.Fatalf("%s: no matches", tc.where)
		}
		driver, probed := cs.cols[tc.driver], cs.cols[tc.probed]
		if driver.perDoc != 0 || probed.perDoc != 0 {
			t.Fatalf("%s: %d + %d per-document reads on the vectorized path", tc.where, driver.perDoc, probed.perDoc)
		}
		if driver.decoded != n || probed.decoded != candidates {
			t.Fatalf("%s: driver decoded %d values of %d, probed leaf %d for %d candidates",
				tc.where, driver.decoded, n, probed.decoded, candidates)
		}
	}
}

// TestSparseDriverDecodesNearCandidates: under a driver of a few dozen
// documents a scan leaf reads the candidates' values and nothing around them.
// No benchmark workload has this shape.
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
		if c := cs.cols["narrow"]; c.decoded != candidates || c.perDoc != 0 {
			t.Fatalf("%s: %d candidates made the scan leaf read %d values and %d documents", tc.name, candidates, c.decoded, c.perDoc)
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

// cursorConjunctions are the conjunctions the cursor tests run over an
// unindexed segment: every scan kind drives or filters, beside a nested OR and
// a NOT.
var cursorConjunctions = []string{
	"narrow = 17 AND day BETWEEN 16005 AND 16030",
	"narrow IN (3, 17, 40) AND hits < 300 AND score > 100.5",
	"third BETWEEN 5 AND 30 AND (hits IN (1, 2, 3, 500) OR score * 2 < hits)",
	"narrow < 40 AND NOT (hits + third > 1020)",
	"timeBucket(day, 7) = 16002 AND score NOT IN (0.25, 1.5, 99) AND narrow != 17",
}

// cursorIndexedConjunctions are driven by an inverted-index bitmap or a
// sorted range of cursorSources' indexed segment, or by the complement of a
// bitmap.
var cursorIndexedConjunctions = []string{
	"sparse BETWEEN 1 AND 60 AND narrow BETWEEN 10 AND 60",
	"wide BETWEEN 1000 AND 1400 AND hits < 300 AND NOT (third = 9)",
	"sparse IN (1, 2, 3, 4, 5, 6, 7) AND (narrow = 3 OR third < 5)",
	"narrow = 17 AND NOT (sparse BETWEEN 1 AND 900)",
}

// cursorDefaultConjunctions are conjunctions over the default column.
var cursorDefaultConjunctions = []string{
	"hits < 300 AND bonus + hits > 200",
	"bonus IN (0, 5) AND score < 100 AND (hits > 900 OR bonus != 0)",
}

// cursorSource is one kind of segment a scan leaf runs over: the single
// leaves and the conjunctions checked on it.
type cursorSource struct {
	name                 string
	cs                   columnSource
	leaves, conjunctions []string
}

// shapes is every predicate checked on the source, leaves first.
func (s cursorSource) shapes() []string {
	return append(s.leaves[:len(s.leaves):len(s.leaves)], s.conjunctions...)
}

// cursorSources builds the four segment kinds: an immutable segment, a
// snapshot of a consuming one taken at its first quarter while a writer goes
// on appending beside every read of it, the immutable one read through a
// schema that has since gained a column, and an immutable one sorted on wide
// with an inverted index on sparse.
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
	indexed := filterFixture(tb, "indexed", n, segment.IndexConfig{SortColumn: "wide", InvertedColumns: []string{"sparse"}})
	return []cursorSource{
		{"immutable", columnSource{seg: imm}, cursorLeaves, cursorConjunctions},
		{"consuming", columnSource{seg: snap}, cursorLeaves, cursorConjunctions},
		{"default column", columnSource{seg: imm, schema: evolved}, cursorDefaultLeaves, cursorDefaultConjunctions},
		{"indexed", columnSource{seg: indexed}, nil, cursorIndexedConjunctions},
	}
}

// cursorOp is one call on a DocIterator: nextBlock into n slots, or filter
// of n candidates about gap documents apart.
type cursorOp struct{ n, gap int }

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
// the leaf's perEntry entries per document asked. AND, OR and NOT are planned
// child by child, so the reference leaves drive and filter where cursors do.
func perDocReference(tb testing.TB, cs columnSource, pred pql.Predicate, stats *Stats) docIDSet {
	switch p := pred.(type) {
	case pql.And:
		return newAndDocIDSet(perDocChildren(tb, cs, p.Children, stats))
	case pql.Or:
		return &orDocIDSet{children: perDocChildren(tb, cs, p.Children, stats), numDocs: cs.seg.NumDocs()}
	case pql.Not:
		return &notDocIDSet{child: perDocReference(tb, cs, p.Child, stats), numDocs: cs.seg.NumDocs()}
	}
	set, err := buildFilter(newExecEnv(context.Background(), cs.seg.Name()), cs, pred, ForceRungs(Options{}, true), stats)
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

func perDocChildren(tb testing.TB, cs columnSource, preds []pql.Predicate, stats *Stats) []docIDSet {
	children := make([]docIDSet, len(preds))
	for i, c := range preds {
		children[i] = perDocReference(tb, cs, c, stats)
	}
	return children
}

// checkCursorOps plans where on src and drives its iterator and the
// per-document reference's through the calls nextOp yields, until it stops or
// the iterators are exhausted: same documents, same Stats after every call,
// whatever chunking the calls provoke, and the documents the oracle's filter
// of the whole predicate picks. A driven iterator gets nextBlock calls, a
// filtering one ascending candidates.
func checkCursorOps(t *testing.T, src cursorSource, where string, filtering bool, nextOp func() (cursorOp, bool)) {
	t.Helper()
	pred := parseWhere(t, where)
	var vecStats, refStats Stats
	env := newExecEnv(context.Background(), src.cs.seg.Name())
	vecSet, err := buildFilter(env, src.cs, pred, ForceRungs(Options{}, true), &vecStats)
	if err != nil {
		t.Fatal(err)
	}
	switch set := vecSet.(type) {
	case *scanDocIDSet:
		if set.leaf == nil {
			t.Fatalf("%s on %s: planned without a cursor", where, src.name)
		}
	case *andDocIDSet:
	default:
		t.Fatalf("%s on %s: planned as %T, want a cursor leaf or a conjunction", where, src.name, vecSet)
	}
	sc := getScratch()
	defer sc.release()
	vec, ref := vecSet.iterator(sc), perDocReference(t, src.cs, pred, &refStats).iterator(sc)
	match, err := NewOracle(nil, src.cs.schema).filter(src.cs.seg, pred)
	if err != nil {
		t.Fatal(err)
	}
	numDocs, last := src.cs.seg.NumDocs(), -1
	for step := 0; ; step++ {
		op, ok := nextOp()
		if !ok {
			return
		}
		var got, want []int
		if filtering {
			// At most a block, as a conjunction passes them.
			cands := make([]int, 0, min(op.n, blockSize))
			for j := 0; j < cap(cands); j++ {
				if last += 1 + (j*37+op.gap/2)%(2*op.gap); last >= numDocs {
					break
				}
				cands = append(cands, last)
			}
			if len(cands) == 0 {
				return
			}
			oracle := slices.DeleteFunc(slices.Clone(cands), func(doc int) bool { return !match(doc) })
			got, want = vec.filter(slices.Clone(cands)), ref.filter(cands)
			assertDocs(t, want, oracle)
		} else {
			gb, wb := make([]int, op.n), make([]int, op.n)
			got, want = gb[:vec.nextBlock(gb)], wb[:ref.nextBlock(wb)]
			var oracle []int
			for last++; last < numDocs && len(oracle) < op.n; last++ {
				if match(last) {
					oracle = append(oracle, last)
				}
			}
			last--
			assertDocs(t, want, oracle)
		}
		assertDocs(t, got, want)
		if vecStats != refStats {
			t.Fatalf("%s on %s, step %d (%+v): stats %+v, reference %+v", where, src.name, step, op, vecStats, refStats)
		}
		if !filtering && len(want) == 0 {
			return
		}
	}
}

// TestScanCursorMatchesScalarIterator drives the iterator of every leaf kind
// and conjunction, on every segment kind, beside the per-document reference's:
// driven through seeded random nextBlock sizes until exhausted, and filtering
// seeded candidate lists whose gaps run from adjacent documents to thousands.
// The indexed segment's conjunctions must not be driven by a scan.
func TestScanCursorMatchesScalarIterator(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, src := range cursorSources(t, 20000) {
		for _, where := range src.conjunctions {
			if src.name != "indexed" {
				break
			}
			set, err := buildFilter(newExecEnv(context.Background(), "f"), src.cs, parseWhere(t, where), Options{}, &Stats{})
			if and, ok := set.(*andDocIDSet); !ok || err != nil {
				t.Fatalf("%s: planned as %T (%v), want a conjunction", where, set, err)
			} else if _, scan := and.children[0].(*scanDocIDSet); scan {
				t.Fatalf("%s: driven by a scan, want an index or its complement", where)
			}
		}
		for _, where := range src.shapes() {
			for trial := 0; trial < 4; trial++ {
				checkCursorOps(t, src, where, trial%2 == 1, func() (cursorOp, bool) {
					return cursorOp{1 + r.Intn(2*blockSize), []int{1, 2, 40, 3000}[r.Intn(4)]}, true
				})
			}
		}
	}
}

// FuzzScanCursor lets the input pick the predicate, the segment kind and the
// call sequence: byte 0 the segment kind, byte 1 the predicate (a leaf or a
// conjunction), then two bytes per call. The first call's first byte picks
// the role (driven or filtering) and every call's the scale of its argument
// (1, 16 or 256) and the candidates' gap (1, 3, 40 or 3000); the second byte
// is the argument: the block size, or how many candidates. The seeds are every
// case of TestScanCursorMatchesScalarIterator under one fixed sequence, and
// every conjunction filtering.
func FuzzScanCursor(f *testing.F) {
	srcs := cursorSources(f, 6000)
	calls := []byte{2, 7, 0, 0, 1, 3, 4, 9, 5, 200, 1, 0, 7, 2, 8, 255, 0, 0, 4, 40, 2, 1, 5, 255}
	for s, src := range srcs {
		for l := range src.leaves {
			f.Add(append([]byte{byte(s), byte(l)}, calls...))
		}
	}
	for s, src := range srcs {
		for c := range src.conjunctions {
			l := len(src.leaves) + c
			f.Add(append([]byte{byte(s), byte(l)}, calls...))
			f.Add(append([]byte{byte(s), byte(l), 1, 30, 10, 3, 22, 100}, calls...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		src := srcs[int(data[0])%len(srcs)]
		shapes := src.shapes()
		where := shapes[int(data[1])%len(shapes)]
		filtering := data[2]%2 == 1
		data = data[2:]
		checkCursorOps(t, src, where, filtering, func() (cursorOp, bool) {
			if len(data) < 2 {
				return cursorOp{}, false
			}
			b, arg := int(data[0]), int(data[1])
			data = data[2:]
			arg *= []int{1, 16, 256}[b/2%3]
			return cursorOp{1 + arg%(2*blockSize), []int{1, 3, 40, 3000}[b/6%4]}, true
		})
	})
}

// TestConjunctionEntriesCountDriverWalkAndCandidates pins what a pure-scan
// conjunction charges: the documents its driver walked times the driver's
// perEntry, plus, for each later leaf, the candidates it tested — the
// documents every leaf before it matches, up to the last document returned —
// times that leaf's perEntry. The sets come from the oracle's per-leaf
// filters. Drained or stopped after a LIMIT, the documents and Stats are the
// same whatever block size the caller asks for.
func TestConjunctionEntriesCountDriverWalkAndCandidates(t *testing.T) {
	const n = 20000
	seg := filterFixture(t, "entries", n, segment.IndexConfig{})
	r := rand.New(rand.NewSource(45))
	for trial := 0; trial < 60; trial++ {
		leaves := make([]string, 2+r.Intn(2))
		for i, p := range r.Perm(len(cursorLeaves))[:len(leaves)] {
			leaves[i] = cursorLeaves[p]
		}
		where := strings.Join(leaves, " AND ")
		env := newExecEnv(context.Background(), seg.Name())
		set, err := buildFilter(env, columnSource{seg: seg}, parseWhere(t, where), Options{}, &Stats{})
		if err != nil {
			t.Fatal(err)
		}
		and, ok := set.(*andDocIDSet)
		if !ok || len(and.children) != len(leaves) {
			t.Fatalf("%s: planned as %T, want a %d-leaf conjunction", where, set, len(leaves))
		}
		perEntry := make([]int64, len(leaves))
		match := make([]func(int) bool, len(leaves))
		for i, c := range and.children {
			sds, ok := c.(*scanDocIDSet)
			if !ok || sds.leaf == nil {
				t.Fatalf("%s: child %d planned as %T, want a cursor leaf", where, i, c)
			}
			perEntry[i] = sds.leaf.perEntry
			if match[i], err = NewOracle(nil, nil).filter(seg, parseWhere(t, leaves[i])); err != nil {
				t.Fatal(err)
			}
		}
		var all []int
		for doc := 0; doc < n; doc++ {
			if !slices.ContainsFunc(match, func(m func(int) bool) bool { return !m(doc) }) {
				all = append(all, doc)
			}
		}
		limit := len(all) + 1 // drained
		if trial%2 == 1 && len(all) > 0 {
			limit = 1 + r.Intn(len(all))
		}
		// Everything before end was walked by the driver and offered to the
		// later leaves: the whole segment when drained, else up to the last
		// document returned.
		end := n
		if limit <= len(all) {
			end = all[limit-1] + 1
		}
		want := int64(end) * perEntry[0]
		for i := 1; i < len(leaves); i++ {
			for doc := 0; doc < end; doc++ {
				if !slices.ContainsFunc(match[:i], func(m func(int) bool) bool { return !m(doc) }) {
					want += perEntry[i]
				}
			}
		}
		var first []int
		var firstStats Stats
		for _, size := range []int{1, 7, blockSize} {
			var stats Stats
			set, err := buildFilter(env, columnSource{seg: seg}, parseWhere(t, where), Options{}, &stats)
			if err != nil {
				t.Fatal(err)
			}
			sc := getScratch()
			it := set.iterator(sc)
			var got []int
			buf := make([]int, size)
			for len(got) < limit {
				k := it.nextBlock(buf[:min(size, limit-len(got))])
				if k == 0 {
					break
				}
				got = append(got, buf[:k]...)
			}
			sc.release()
			if stats.NumEntriesScanned != want {
				t.Fatalf("%s, limit %d, blocks of %d: %d entries, want %d", where, limit, size, stats.NumEntriesScanned, want)
			}
			if first == nil {
				first, firstStats = got, stats
				assertDocs(t, got, all[:min(limit, len(all))])
			} else if assertDocs(t, got, first); stats != firstStats {
				t.Fatalf("%s, limit %d: blocks of %d charged %+v, blocks of 1 %+v", where, limit, size, stats, firstStats)
			}
		}
	}
}

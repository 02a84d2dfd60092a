package query

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"pinot/internal/metrics"
	"pinot/internal/pql"
	"pinot/internal/qcache"
	"pinot/internal/segment"
	"pinot/internal/startree"
)

// TestGroupStateBytesIsTheTablesSize: a GROUP BY query's GroupStateBytes is
// the sum of the sizes of the tables its segments built — on the scan path a
// closed form, each of 4·members groups a segment holding two key and two
// state columns of 16 bytes and a two-byte country — and the star-tree plan
// reports what the scan of the same segment does. Without GROUP BY it is 0.
func TestGroupStateBytesIsTheTablesSize(t *testing.T) {
	const members = 6
	segs := groupedSegments(t, 3, members)
	q, err := pql.Parse(hopPQL)
	if err != nil {
		t.Fatal(err)
	}
	var tables int64
	for _, is := range segs {
		res, err := ExecuteSegment(context.Background(), is, q, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tables += res.Groups.sizeBytes()
	}
	got := runPQL(t, segs, hopPQL, Options{}).Stats.GroupStateBytes
	if want := int64(len(segs) * 4 * members * (16*4 + 2)); got != tables || got != want {
		t.Fatalf("GroupStateBytes = %d, the tables' sizes sum to %d, the closed form is %d", got, tables, want)
	}
	if n := runPQL(t, segs, "SELECT sum(clicks), count(*) FROM events", Options{}).Stats.GroupStateBytes; n != 0 {
		t.Fatalf("an aggregation without GROUP BY reports %d bytes of group state", n)
	}

	tree, err := startree.Build(segs[0].Seg, startree.Config{DimensionSplitOrder: []string{"country", "memberId"}, Metrics: []string{"clicks"}})
	if err != nil {
		t.Fatal(err)
	}
	starred := []IndexedSegment{{Seg: segs[0].Seg, Tree: tree}}
	star, scan := runPQL(t, starred, hopPQL, Options{}), runPQL(t, starred, hopPQL, Options{DisableStarTree: true})
	if star.Stats.StarTreeSegments != 1 || scan.Stats.StarTreeSegments != 0 {
		t.Fatalf("star-tree segments: %d with the tree, %d without; want 1 and 0", star.Stats.StarTreeSegments, scan.Stats.StarTreeSegments)
	}
	if star.Stats.GroupStateBytes != scan.Stats.GroupStateBytes || star.Stats.GroupStateBytes != tables/int64(len(segs)) {
		t.Fatalf("GroupStateBytes %d on the star tree, %d on the scan, want both %d", star.Stats.GroupStateBytes, scan.Stats.GroupStateBytes, tables/int64(len(segs)))
	}
}

// groupedSegments builds n segments that each hold every combination of four
// countries and `members` member ids (twice), so a GROUP BY country, memberId
// finds 4*members groups in each.
func groupedSegments(t testing.TB, n, members int) []IndexedSegment {
	t.Helper()
	var segs []IndexedSegment
	for s := 0; s < n; s++ {
		var rows []testRow
		for rep := 0; rep < 2; rep++ {
			for c, country := range []string{"us", "de", "fr", "in"} {
				for m := 0; m < members; m++ {
					rows = append(rows, testRow{country: country, browser: "chrome", member: int64(1000 + m),
						clicks: int64(s + c + m + rep), rev: float64(m) / 4, day: 15000})
				}
			}
		}
		segs = append(segs, IndexedSegment{Seg: buildRows(t, rows, segment.IndexConfig{}, fmt.Sprintf("g%d", s))})
	}
	return segs
}

// groupByHop is a group-by's whole path in one process: every segment is
// executed, its result encoded and decoded as for the wire, the frames merged
// in order and the result finalized.
func groupByHop(t testing.TB, segs []IndexedSegment, q *pql.Query) *Result {
	var merged *Intermediate
	for _, is := range segs {
		res, err := ExecuteSegment(context.Background(), is, q, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		frame, err := DecodeIntermediate(mustEncode(t, res))
		if err != nil {
			t.Fatal(err)
		}
		if merged == nil {
			merged = frame
		} else if err := merged.Merge(frame); err != nil {
			t.Fatal(err)
		}
	}
	return merged.Finalize(q)
}

const hopPQL = "SELECT sum(clicks), count(*) FROM events GROUP BY country, memberId TOP 10"

// TestGroupByHopAllocsIndependentOfGroups: what a group-by allocates from
// segment kernel to final rows does not depend on how many groups it has. Ten
// times the groups (24 a segment against 240, over 8 segments: 1 728 more
// (segment, group) pairs) may cost what doubling a column three or four more
// times costs, a few allocations per column per hop, and nothing per group.
// When every group was a map entry holding a boxed key and a state object per
// aggregate, each pair cost about 17 allocations.
func TestGroupByHopAllocsIndependentOfGroups(t *testing.T) {
	q, err := pql.Parse(hopPQL)
	if err != nil {
		t.Fatal(err)
	}
	few, many := groupedSegments(t, 8, 6), groupedSegments(t, 8, 60)
	if rows := groupByHop(t, many, q).Rows; len(rows) != 10 || rows[0][3] != int64(16) {
		t.Fatalf("unexpected result: %v", rows)
	}
	a := testing.AllocsPerRun(10, func() { groupByHop(t, few, q) })
	b := testing.AllocsPerRun(10, func() { groupByHop(t, many, q) })
	const pairs = 8 * (240 - 24)
	t.Logf("%.0f allocations with 24 groups a segment, %.0f with 240: %.3f per further (segment, group) pair", a, b, (b-a)/pairs)
	if b-a > pairs/8 {
		t.Errorf("%.0f allocations with 24 groups a segment, %.0f with 240: %.2f per further pair, want under 1 in 8", a, b, (b-a)/pairs)
	}
}

// BenchmarkGroupByHop reports what TestGroupByHopAllocsIndependentOfGroups
// bounds, in time and bytes as well.
func BenchmarkGroupByHop(b *testing.B) {
	q, err := pql.Parse(hopPQL)
	if err != nil {
		b.Fatal(err)
	}
	for _, members := range []int{6, 60} {
		segs := groupedSegments(b, 8, members)
		b.Run(fmt.Sprintf("groups=%d", 4*members), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				groupByHop(b, segs, q)
			}
		})
	}
}

// TestMergeLeavesItsRightOperandAlone: one decoded result merged into two
// accumulators, each of which then takes a further frame, gives both the
// answer the frames merged afresh give, and still encodes to the bytes it
// was decoded from. Merge used to adopt the other side's groups, so the
// second accumulator's later merges wrote through the first's.
func TestMergeLeavesItsRightOperandAlone(t *testing.T) {
	const everyFunc = "SELECT sum(clicks), count(*), min(revenue), max(revenue), avg(clicks), percentile50(clicks), distinctcount(browser) FROM events"
	segs := groupedSegments(t, 3, 6)
	for _, text := range []string{everyFunc + " GROUP BY country, memberId TOP 1000", everyFunc} {
		q, err := pql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		var frames [][]byte
		for _, is := range segs {
			res, err := ExecuteSegment(context.Background(), is, q, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, mustEncode(t, res))
		}
		decode := func(i int) *Intermediate {
			r, err := DecodeIntermediate(frames[i])
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		merge := func(into *Intermediate, rs ...*Intermediate) *Intermediate {
			for _, r := range rs {
				if err := into.Merge(r); err != nil {
					t.Fatal(err)
				}
			}
			return into
		}
		want := merge(EmptyIntermediate(q, nil), decode(0), decode(2)).Finalize(q).Rows

		shared := decode(0)
		for name, acc := range map[string]*Intermediate{"an empty accumulator": EmptyIntermediate(q, nil), "a second empty accumulator": EmptyIntermediate(q, nil)} {
			if got := merge(acc, shared, decode(2)).Finalize(q).Rows; !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s: merged rows diverge:\n got %v\nwant %v", text, name, got, want)
			}
		}
		if !bytes.Equal(mustEncode(t, shared), frames[0]) {
			t.Errorf("%s: a result that was only merged from no longer encodes to the bytes it came from", text)
		}
	}
}

// TestGroupKeyIdentity pins which keys are one group, through encode, decode
// and merge: a key is its typed values, compared bit for bit.
func TestGroupKeyIdentity(t *testing.T) {
	exprs := []pql.Expression{{IsAgg: true, Func: pql.Count, Column: "*"}}
	payloadNaN := math.Float64frombits(0x7ff8_0000_dead_beef)
	// table builds an intermediate that counts each key once.
	table := func(keys ...[]any) *Intermediate {
		r := &Intermediate{Kind: KindGroupBy, AggExprs: exprs, Groups: NewGroupTable(len(keys[0]), exprs)}
		for range keys[0] {
			r.GroupCols = append(r.GroupCols, "k")
		}
		for _, k := range keys {
			g := mustUpsert(t, r.Groups, k...)
			r.Groups.SetState(g, 0, AggState{Count: r.Groups.State(g, 0).Count + 1})
		}
		return r
	}
	for _, c := range []struct {
		name        string
		left, right [][]any
		groups      int
		err         string
	}{
		{name: "the empty string is a key", left: [][]any{{""}, {"a"}}, right: [][]any{{""}}, groups: 2},
		{name: "-0 and 0 are two groups", left: [][]any{{0.0}}, right: [][]any{{math.Copysign(0, -1)}, {0.0}}, groups: 2},
		{name: "every NaN is one group", left: [][]any{{math.NaN()}}, right: [][]any{{payloadNaN}, {-math.NaN()}}, groups: 1},
		{name: "true and false", left: [][]any{{true}}, right: [][]any{{false}, {true}}, groups: 2},
		{name: "an int64 is not its digits", left: [][]any{{int64(5)}}, right: [][]any{{"5"}}, err: "cannot merge group key 0: string into int64"},
		{name: "a float64 is not an int64", left: [][]any{{"a", int64(5)}}, right: [][]any{{"a", 5.0}}, err: "cannot merge group key 1: float64 into int64"},
		{name: "NUL in a string is not a separator", left: [][]any{{"a\x00b", "c"}}, right: [][]any{{"a", "b\x00c"}, {"a\x00b", "c"}}, groups: 2},
	} {
		left, err := DecodeIntermediate(mustEncode(t, table(c.left...)))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		right, err := DecodeIntermediate(mustEncode(t, table(c.right...)))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		err = left.Merge(right)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%s: err = %v, want %q", c.name, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		total := int64(0)
		for i := 0; i < left.Groups.Len(); i++ {
			total += left.Groups.State(i, 0).Count
		}
		if left.Groups.Len() != c.groups || total != int64(len(c.left)+len(c.right)) {
			t.Errorf("%s: %d groups counting %d, want %d counting %d", c.name, left.Groups.Len(), total, c.groups, len(c.left)+len(c.right))
		}
	}
	// One column holds one type from its first row on.
	g := NewGroupTable(1, exprs)
	mustUpsert(t, g, int64(5))
	if _, err := g.Upsert([]any{"5"}); err == nil || g.Len() != 1 {
		t.Errorf("a string joined a column of int64: err = %v, %d groups", err, g.Len())
	}
}

// TestAggCacheKeyRenderedOncePerQuery: the partial-aggregate cache's key is
// rendered for the query, not for each of its segments. With a filter that is
// expensive to render (an IN list of 2 000 values), each further warm segment
// must allocate far less than one rendering does.
func TestAggCacheKeyRenderedOncePerQuery(t *testing.T) {
	var in []string
	for i := 0; i < 2000; i++ {
		in = append(in, fmt.Sprint(100000+i))
	}
	q, err := pql.Parse("SELECT count(*) FROM events WHERE memberId NOT IN (" + strings.Join(in, ", ") + ")")
	if err != nil {
		t.Fatal(err)
	}
	segs := groupedSegments(t, 8, 6)
	e := &Engine{AggCache: qcache.New(qcache.Config{Tier: "aggregate", Metrics: metrics.NewRegistry()}), Options: Options{DisablePruning: true}}
	run := func(segs []IndexedSegment) func() {
		return func() {
			if _, _, err := e.Execute(context.Background(), q, segs, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(segs)()
	run(segs)() // the second sighting fills the cache: every run below is eight hits
	render := allocatedBy(func() { aggCacheKey(q) })
	one, eight := allocatedBy(run(segs[:1])), allocatedBy(run(segs))
	perSegment := (float64(eight) - float64(one)) / 7
	t.Logf("one rendering allocates %d bytes; a query over 1 warm segment %d, over 8 %d: %.0f per further segment", render, one, eight, perSegment)
	if perSegment > float64(render)/4 {
		t.Errorf("each further warm segment allocates %.0f bytes and one key rendering %d: the key is rendered per segment", perSegment, render)
	}
}

// TestTopOrdersByScoreThenTypedKey: TOP n takes groups by the first
// aggregate descending and breaks ties by the key, column by column, each
// compared as its type (so 9 sorts before 10, false before true), and boxes
// the values back to what went in.
func TestTopOrdersByScoreThenTypedKey(t *testing.T) {
	exprs := []pql.Expression{{IsAgg: true, Func: pql.Count, Column: "*"}, {IsAgg: true, Func: pql.Max, Column: "x"}}
	r := &Intermediate{Kind: KindGroupBy, AggExprs: exprs, GroupCols: []string{"s", "l", "d", "b"}, Groups: NewGroupTable(4, exprs)}
	for _, g := range []struct {
		key   []any
		count int64
	}{
		{[]any{"b", int64(10), 0.5, true}, 1},
		{[]any{"b", int64(9), 0.5, true}, 1},
		{[]any{"a", int64(10), 2.5, true}, 1},
		{[]any{"a", int64(10), -1.5, true}, 1},
		{[]any{"a", int64(10), -1.5, false}, 1},
		{[]any{"z", int64(0), 0.0, false}, 7},
		{[]any{"c", int64(0), 0.0, false}, 0},
	} {
		ord := mustUpsert(t, r.Groups, g.key...)
		r.Groups.SetState(ord, 0, AggState{Count: g.count})
		r.Groups.SetState(ord, 1, AggState{Max: 3, Seen: true})
	}
	got := r.Finalize(&pql.Query{Top: 6})
	want := [][]any{
		{"z", int64(0), 0.0, false, int64(7), 3.0},
		{"a", int64(10), -1.5, false, int64(1), 3.0},
		{"a", int64(10), -1.5, true, int64(1), 3.0},
		{"a", int64(10), 2.5, true, int64(1), 3.0},
		{"b", int64(9), 0.5, true, int64(1), 3.0},
		{"b", int64(10), 0.5, true, int64(1), 3.0},
	}
	if !reflect.DeepEqual(got.Rows, want) || !reflect.DeepEqual(got.Columns, []string{"s", "l", "d", "b", "count(*)", "max(x)"}) {
		t.Errorf("got %v %v\nwant %v", got.Columns, got.Rows, want)
	}
	if small, big := (&Intermediate{Kind: KindGroupBy}).SizeBytes(), r.SizeBytes(); big < small+7*4*8 {
		t.Errorf("SizeBytes %d for seven groups of four keys, %d for none", big, small)
	}
}

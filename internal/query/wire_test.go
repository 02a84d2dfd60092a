package query

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"pinot/internal/pql"
	"pinot/internal/wire"
)

// sampleIntermediates returns one intermediate of every shape the layout
// carries: a selection with a multi-value cell (and an empty one), a group-by
// with a DISTINCTCOUNT set, percentile values and Arith/Call aggregation
// arguments, an aggregation without GROUP BY (the table of no key column and
// one row) under every function, and a group-by no row reached.
func sampleIntermediates() map[string]*Intermediate {
	selection := &Intermediate{
		Kind:       KindSelection,
		SelectCols: []string{"id", "tags", "score", "ok", "ts"},
		HiddenCols: 1,
		Rows: [][]any{
			{int64(7), []any{"a", "b"}, 2.5, true, int64(-3)},
			{int64(8), []any{}, -0.5, false, int64(900)},
		},
		Stats: Stats{NumDocsScanned: 2, NumEntriesScanned: 10, NumSegmentsQueried: 1, SegmentsMatched: 1, TotalDocs: 50},
	}

	exprs := []pql.Expression{
		{IsAgg: true, Func: pql.DistinctCount, Column: "member"},
		{IsAgg: true, Func: "PERCENTILE95", Column: "(latency * 2)",
			Arg: pql.Arith{Op: pql.OpMul, L: pql.ColumnRef{Name: "latency"}, R: pql.Literal{Value: int64(2)}}},
		{IsAgg: true, Func: pql.Max, Column: "abs(delta)",
			Arg: pql.Call{Name: "abs", Args: []pql.Expr{pql.ColumnRef{Name: "delta"}}}},
	}
	groupBy := &Intermediate{
		Kind:      KindGroupBy,
		AggExprs:  exprs,
		GroupCols: []string{"country", "bucket"},
		Groups:    NewGroupTable(2, exprs),
		Stats:     Stats{NumDocsScanned: 9, GroupStateBytes: 512, DictExprSegments: 1},
	}
	for i, country := range []string{"us", "de"} {
		g, err := groupBy.Groups.Upsert([]any{country, int64(i * 3600)})
		if err != nil {
			panic(err)
		}
		groupBy.Groups.SetState(g, 0, AggState{Distinct: map[string]struct{}{"m1": {}, fmt.Sprint("m", i+2): {}}})
		groupBy.Groups.SetState(g, 1, AggState{Values: []float64{12.5, float64(i)}})
		groupBy.Groups.SetState(g, 2, AggState{Max: -4, Seen: true})
	}

	everyFunc := append([]pql.Expression{
		{IsAgg: true, Func: pql.Count, Column: "*"},
		{IsAgg: true, Func: pql.Sum, Column: "clicks"},
		{IsAgg: true, Func: pql.Avg, Column: "clicks"},
		{IsAgg: true, Func: pql.Min, Column: "rev"},
		{IsAgg: true, Func: pql.Min, Column: "nothing seen"},
	}, exprs...)
	agg := NewAggIntermediate(everyFunc)
	for a, st := range []AggState{
		{Count: 42}, {Sum: 3.5}, {Sum: -7, Count: 3}, {Min: 0.25, Seen: true}, {Min: math.Inf(1)},
		{Distinct: map[string]struct{}{"": {}, "m9": {}}}, {Values: []float64{3.5, math.Inf(-1)}}, {Max: math.Copysign(0, -1), Seen: true},
	} {
		agg.Groups.SetState(0, a, st)
	}
	agg.Stats.ResultCacheHit = true

	empty := &Intermediate{
		Kind:      KindGroupBy,
		AggExprs:  []pql.Expression{{IsAgg: true, Func: pql.Count, Column: "*"}},
		GroupCols: []string{"country"},
		Stats:     Stats{NumSegmentsQueried: 1, TotalDocs: 400},
	}
	return map[string]*Intermediate{"selection": selection, "group-by": groupBy, "aggregation": agg, "empty group-by": empty}
}

// mustUpsert finds or adds the group of a key.
func mustUpsert(t testing.TB, g *GroupTable, values ...any) int {
	t.Helper()
	ord, err := g.Upsert(values)
	if err != nil {
		t.Fatal(err)
	}
	return ord
}

func mustEncode(t testing.TB, r *Intermediate) []byte {
	t.Helper()
	b, err := EncodeIntermediate(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestIntermediateRoundTrip: what a cache stores decodes to what was put,
// in a slice of exactly its length that is not the pooled buffer.
func TestIntermediateRoundTrip(t *testing.T) {
	for name, r := range sampleIntermediates() {
		b := mustEncode(t, r)
		if len(b) != cap(b) {
			t.Errorf("%s: %d bytes in a %d-byte array; a cache would hold the slack", name, len(b), cap(b))
		}
		// The next encode reuses the pooled buffer; b must not move with it.
		before := string(b)
		mustEncode(t, sampleIntermediates()["selection"])
		if string(b) != before {
			t.Fatalf("%s: the returned bytes alias the pooled buffer", name)
		}
		back, err := DecodeIntermediate(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !equalIntermediates(back, r) {
			t.Errorf("%s: round trip changed the value:\n got %+v\nwant %+v", name, flatten(back), flatten(r))
		}
	}
}

// TestDecodedIntermediateIsPrivate: nothing decoded aliases the bytes it came
// from, so a cache entry survives whatever its reader does, and the reader
// survives the entry being overwritten.
func TestDecodedIntermediateIsPrivate(t *testing.T) {
	r := sampleIntermediates()["group-by"]
	b := mustEncode(t, r)
	back, err := DecodeIntermediate(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		b[i] = 0xff
	}
	if !equalIntermediates(back, r) {
		t.Fatalf("a decoded value changed when its bytes were overwritten:\n got %+v\nwant %+v", flatten(back), flatten(r))
	}
}

func TestEncodeIntermediateRefusesWhatTheLayoutCannotCarry(t *testing.T) {
	deepCell := any("leaf")
	for i := 0; i <= wire.MaxNesting; i++ {
		deepCell = []any{deepCell}
	}
	var deepExpr pql.Expr = pql.ColumnRef{Name: "c"}
	for i := 0; i <= wire.MaxNesting; i++ {
		deepExpr = pql.Arith{Op: pql.OpAdd, L: deepExpr, R: pql.Literal{Value: int64(1)}}
	}
	for name, c := range map[string]struct {
		r    *Intermediate
		want string
	}{
		"int cell":         {&Intermediate{Rows: [][]any{{int(1)}}}, "unsupported cell type int"},
		"nil cell":         {&Intermediate{Rows: [][]any{{nil}}}, "unsupported cell type"},
		"group shape":      {&Intermediate{Groups: oneGroup(), GroupCols: []string{"a", "b"}}, "group table of 1 rows, 1 keys"},
		"no key, two rows": {&Intermediate{Groups: &GroupTable{n: 2}}, "group table of 2 rows, 0 keys"},
		"group func":       {&Intermediate{Groups: oneGroup(), GroupCols: []string{"a"}, AggExprs: []pql.Expression{{Func: pql.Sum}}}, "state column 0 is COUNT"},
		"deep cell":        {&Intermediate{Rows: [][]any{{deepCell}}}, "nested deeper"},
		"deep expr":        {&Intermediate{AggExprs: []pql.Expression{{Arg: deepExpr}}}, "nested deeper"},
		"expr node":        {&Intermediate{AggExprs: []pql.Expression{{Arg: unknownExpr{}}}}, "unsupported expression node"},
	} {
		if b, err := EncodeIntermediate(c.r); err == nil || !strings.Contains(err.Error(), c.want) || b != nil {
			t.Errorf("%s: %d bytes, err = %v; want no bytes and %q", name, len(b), err, c.want)
		}
	}
}

// oneGroup is a table of one string key under COUNT.
func oneGroup() *GroupTable {
	g := NewGroupTable(1, []pql.Expression{{Func: pql.Count}})
	if _, err := g.Upsert([]any{"k"}); err != nil {
		panic(err)
	}
	return g
}

// unknownExpr is an expression node the parser never builds.
type unknownExpr struct{ pql.ColumnRef }

// allocatedBy meters the bytes fn allocates: the least of three runs, because
// TotalAlloc is the whole process's and sibling fuzz workers or tests allocate
// meanwhile, whereas a decoder that over-allocates does so every time.
func allocatedBy(fn func()) uint64 {
	best := ^uint64(0)
	var before, after runtime.MemStats
	for try := 0; try < 3; try++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// checkDecode is the decoder's contract over arbitrary bytes, shared by the
// fuzz target and the exhaustive mutation test: no panic, never (nil, nil),
// allocation linear in the input, and whatever decodes encodes again to bytes
// that decode to an equal value — a cache can store anything it was able to
// read. The limit is c*len + k. c: the costliest bytes are the four of an
// empty aggregation expression over groups, a 56-byte Expression and a
// 152-byte state column, 53 a byte measured; a key or state column costs 8
// to 16 bytes a row and a row is at least one byte; a one-member set costs a
// map slot and its size, 33 a byte measured (TestDecodeAllocationWorstCases
// builds each). k: the fixed structs and the error.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	var r *Intermediate
	var err error
	if got, limit := allocatedBy(func() { r, err = DecodeIntermediate(data) }), uint64(64*len(data)+4096); got > limit {
		t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, limit)
	}
	if err != nil {
		return
	}
	if r == nil {
		t.Fatalf("nil intermediate with nil error on %d bytes", len(data))
	}
	again, err := EncodeIntermediate(r)
	if err != nil {
		t.Fatalf("a decoded intermediate does not encode: %v", err)
	}
	back, err := DecodeIntermediate(again)
	if err != nil {
		t.Fatalf("re-encoded bytes do not decode: %v", err)
	}
	if !equalIntermediates(back, r) {
		t.Fatalf("re-encoding changed the value:\n got %+v\nwant %+v", flatten(back), flatten(r))
	}
}

// equalIntermediates compares two intermediates by value: group tables by
// their groups in order (a table built by Upsert carries a hash index a
// decoded one does not), and NaN equal to NaN (DeepEqual compares floats with
// ==, and arbitrary bytes decode to NaNs freely).
func equalIntermediates(a, b *Intermediate) bool {
	return fmt.Sprintf("%#v", flatten(a)) == fmt.Sprintf("%#v", flatten(b))
}

// flatten renders an intermediate without pointers, so %#v shows values (NaN
// as NaN, maps in key order).
func flatten(r *Intermediate) any {
	type group struct {
		Values []any
		Aggs   []AggState
	}
	groups := make([]group, r.Groups.Len())
	for i := range groups {
		groups[i].Values = r.Groups.Values(i)
		for a := range r.Groups.aggs {
			groups[i].Aggs = append(groups[i].Aggs, r.Groups.State(i, a))
		}
	}
	cp := *r
	cp.Groups = nil
	return []any{cp, groups}
}

// TestDecodeIntermediateSurvivesEveryMutation walks every truncation, every
// bit flip and a huge count at every position of every sample: the bytes a
// cache holds must be safe to decode whatever happened to them.
func TestDecodeIntermediateSurvivesEveryMutation(t *testing.T) {
	huge := [][]byte{
		{0x80, 0x80, 0x80, 0x80, 0x08},                               // 1<<31
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40},       // 1<<62
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // 1<<64 - 1
	}
	for name, r := range sampleIntermediates() {
		valid := mustEncode(t, r)
		for n := 0; n < len(valid); n++ {
			if _, err := DecodeIntermediate(valid[:n]); err == nil {
				t.Fatalf("%s: truncation to %d of %d bytes decoded", name, n, len(valid))
			}
		}
		if _, err := DecodeIntermediate(append(append([]byte(nil), valid...), 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("%s: a trailing byte was accepted: %v", name, err)
		}
		for i := range valid {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), valid...)
				mut[i] ^= 1 << bit
				checkDecode(t, mut)
			}
			for _, h := range huge {
				mut := append(append([]byte(nil), valid[:i]...), h...)
				rest := valid[i+1:]
				if len(rest) > 32 {
					rest = rest[:32]
				}
				checkDecode(t, append(mut, rest...))
			}
		}
	}
}

// goldenGroupBy is a version-4 group-by written out by hand, the layout's own
// pin and the fuzz corpus's first seed (internal/transport's TestGoldenFrames
// pins a frame with a column of every kind): two groups keyed by a string and
// an int64, under AVG(a) and MIN(m).
var goldenGroupBy = []byte{
	byte(KindGroupBy),
	2, // agg exprs
	1, 3, 'A', 'V', 'G', 1, 'a', exprNil,
	1, 3, 'M', 'I', 'N', 1, 'm', exprNil,
	2, 1, 's', 1, 'l', // group cols
	2,                                // groups
	cellString, 2, 'u', 's', 2, 2, 0, // key s: the bytes "us", then two lengths
	cellInt64, 2, 5, 0xd8, 0x04, // key l: -3, 300
	2, 2, 0, // AVG count: 1, 0
	2, 0x40, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // AVG sum: 2, 0
	2, 0x40, 0, 0, 0, 0, 0, 0, 0, 0x7f, 0xf0, 0, 0, 0, 0, 0, 0, // MIN extreme: 2, +Inf
	2, 1, 0, // MIN seen
	0, 0, 0, 0, // select cols, hidden cols, rows, cells
	0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // stats
}

// goldenAggregation is the same for an aggregation without GROUP BY: no group
// column, no key column, and the one row of COUNT(*) and MAX(m).
var goldenAggregation = []byte{
	byte(KindGroupBy),
	2, // agg exprs
	1, 5, 'C', 'O', 'U', 'N', 'T', 1, '*', exprNil,
	1, 3, 'M', 'A', 'X', 1, 'm', exprNil,
	0,     // group cols
	1,     // rows
	1, 84, // COUNT count: 42
	1, 0x40, 0, 0, 0, 0, 0, 0, 0, // MAX extreme: 2
	1, 1, // MAX seen
	0, 0, 0, 0, // select cols, hidden cols, rows, cells
	0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // stats
}

// TestGoldenIntermediates: the hand-written bytes decode to the table they
// describe and that table encodes to them; a table of no key column is
// refused with more rows than its one.
func TestGoldenIntermediates(t *testing.T) {
	for _, c := range []struct {
		name  string
		bytes []byte
		rows  string
	}{
		{"group-by", goldenGroupBy, "[[us -3 2 2] [ 300 0 0]]"},
		{"aggregation", goldenAggregation, "[[42 2]]"},
	} {
		r, err := DecodeIntermediate(c.bytes)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := fmt.Sprint(r.Finalize(&pql.Query{}).Rows); got != c.rows {
			t.Errorf("%s: decoded rows %s, want %s", c.name, got, c.rows)
		}
		if again := mustEncode(t, r); string(again) != string(c.bytes) {
			t.Errorf("%s: re-encoded bytes differ:\n got %v\nwant %v", c.name, again, c.bytes)
		}
	}
	const rowsAt = 21
	hostile := append([]byte(nil), goldenAggregation...)
	hostile[rowsAt] = 2
	if _, err := DecodeIntermediate(hostile); err == nil || !strings.Contains(err.Error(), "0 key columns") {
		t.Errorf("a table of no key column and two rows: err = %v", err)
	}
}

// FuzzDecodeIntermediate searches for bytes that break the decoder's
// contract (checkDecode), seeded with every sample shape and its common
// corruptions. These bytes now also live in the caches, so the target sits
// where the layout does.
func FuzzDecodeIntermediate(f *testing.F) {
	f.Add(goldenGroupBy)
	f.Add(goldenAggregation)
	for _, r := range sampleIntermediates() {
		valid := mustEncode(f, r)
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)/3] ^= 0x80
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("junk"))
	f.Fuzz(checkDecode)
}

// TestDecodeAllocationWorstCases hand-builds the payloads checkDecode's
// constants are derived from, each the densest run of its kind, and holds
// them to the same limit: empty aggregation expressions over a group and over
// the row of no key, state columns of that row, key columns of one row,
// one-member sets, and a group count no column backs.
func TestDecodeAllocationWorstCases(t *testing.T) {
	const n = 2000
	head := func(e *wire.Encoder, exprs, cols, groups int) {
		e.Raw(byte(KindGroupBy))
		e.Count(exprs)
		for i := 0; i < exprs; i++ {
			e.Raw(0, 0, 0, exprNil) // not an aggregate, no function, no column, no argument
		}
		e.Count(cols)
		for i := 0; i < cols; i++ {
			e.Str("")
		}
		e.Count(groups)
	}
	tail := func(e *wire.Encoder) {
		e.Count(0)  // select cols
		e.Varint(0) // hidden cols
		e.Count(0)  // rows
		e.Count(0)  // cells
		AppendStats(e, &Stats{})
	}
	for name, build := range map[string]func(e *wire.Encoder){
		"empty expressions": func(e *wire.Encoder) {
			head(e, n, 1, 1)
			e.Raw(cellBool, 1, 2) // the key column: one row, true
			tail(e)
		},
		"empty expressions over no key": func(e *wire.Encoder) {
			head(e, n, 0, 1)
			tail(e)
		},
		"functions over no key": func(e *wire.Encoder) {
			// Every carried field of every function as a column of one row:
			// AVG's count and sum, MIN's extreme and seen, an empty value list
			// and an empty set.
			funcs := []pql.AggFunc{pql.Avg, pql.Min, "PERCENTILE50", pql.DistinctCount}
			e.Raw(byte(KindGroupBy))
			e.Count(n)
			for i := 0; i < n; i++ {
				e.Bool(true)
				e.Str(string(funcs[i%len(funcs)]))
				e.Str("")
				e.Raw(exprNil)
			}
			e.Count(0) // group cols
			e.Count(1) // rows
			for i := 0; i < n; i++ {
				switch funcs[i%len(funcs)] {
				case pql.Avg:
					e.Raw(1, 0)
					e.Count(1)
					e.Float(0)
				case pql.Min:
					e.Count(1)
					e.Float(0)
					e.Raw(1, 0)
				case pql.DistinctCount:
					e.Raw(1, 0)
				default:
					e.Raw(0, 1, 0)
				}
			}
			tail(e)
		},
		"key columns": func(e *wire.Encoder) {
			head(e, 0, n, 1)
			for i := 0; i < n; i++ {
				e.Raw(cellBool, 1, 0)
			}
			tail(e)
		},
		"key columns cut short": func(e *wire.Encoder) {
			head(e, 0, n, 1)
		},
		"groups no column backs": func(e *wire.Encoder) {
			head(e, 0, 1, n)
			e.Raw(cellString, 0, byte(n&0x7f|0x80), byte(n>>7))
			e.Raw(make([]byte, n)...) // n empty strings, and the table ends
		},
		"one-member sets": func(e *wire.Encoder) {
			e.Raw(byte(KindGroupBy))
			e.Count(1)
			e.Bool(true)
			e.Str(string(pql.DistinctCount))
			e.Str("c")
			e.Raw(exprNil)
			e.Strs([]string{"k"})
			e.Count(n)
			e.Raw(cellBool)
			e.Count(n)
			e.Raw(make([]byte, n)...)
			e.Count(n) // the count column: every set has one member
			for i := 0; i < n; i++ {
				e.Varint(1)
			}
			for i := 0; i < n; i++ {
				e.Str("")
			}
			tail(e)
		},
	} {
		var e wire.Encoder
		build(&e)
		data := append([]byte(nil), e.Bytes()...)
		if len(data) < n {
			t.Fatalf("%s: only %d bytes", name, len(data))
		}
		t.Run(name, func(t *testing.T) { checkDecode(t, data) })
	}
}

package query

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pinot/internal/pql"
	"pinot/internal/wire"
)

// sampleIntermediates returns one intermediate of every shape the layout
// carries: a selection with a multi-value cell (and an empty one), a group-by
// with a DISTINCTCOUNT set, percentile values and Arith/Call aggregation
// arguments, a plain aggregation, and a group-by no row reached.
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
		states := make([]*AggState, len(exprs))
		for a, x := range exprs {
			states[a] = NewAggState(x.Func)
		}
		states[0].AddDistinct("m1")
		states[0].AddDistinct(fmt.Sprint("m", i+2))
		states[1].AddNumeric(12.5)
		states[1].AddNumeric(float64(i))
		states[2].AddNumeric(-4)
		for a, st := range states {
			groupBy.Groups.SetState(g, a, *st)
		}
	}

	agg := NewAggIntermediate(exprs[1:])
	agg.Aggs[0].AddNumeric(3.5)
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
		"int cell":    {&Intermediate{Rows: [][]any{{int(1)}}}, "unsupported cell type int"},
		"nil cell":    {&Intermediate{Rows: [][]any{{nil}}}, "unsupported cell type"},
		"nil state":   {&Intermediate{Aggs: []*AggState{nil}}, "nil aggregation state"},
		"group shape": {&Intermediate{Groups: oneGroup(), GroupCols: []string{"a", "b"}}, "group table of 1 keys"},
		"group func":  {&Intermediate{Groups: oneGroup(), GroupCols: []string{"a"}, AggExprs: []pql.Expression{{Func: pql.Sum}}}, "state column 0 is COUNT"},
		"deep cell":   {&Intermediate{Rows: [][]any{{deepCell}}}, "nested deeper"},
		"deep expr":   {&Intermediate{AggExprs: []pql.Expression{{Arg: deepExpr}}}, "nested deeper"},
		"expr node":   {&Intermediate{AggExprs: []pql.Expression{{Arg: unknownExpr{}}}}, "unsupported expression node"},
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
	states := func(ss []*AggState) []AggState {
		out := make([]AggState, len(ss))
		for i, s := range ss {
			out[i] = *s
		}
		return out
	}
	groups := make([]group, r.Groups.Len())
	for i := range groups {
		groups[i].Values = r.Groups.Values(i)
		for a := range r.Groups.aggs {
			groups[i].Aggs = append(groups[i].Aggs, r.Groups.State(i, a))
		}
	}
	cp := *r
	cp.Aggs, cp.Groups = nil, nil
	return []any{cp, states(r.Aggs), groups}
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

// goldenGroupBy is a version-3 group-by written out by hand, the layout's own
// pin and the fuzz corpus's first seed (internal/transport's TestGoldenFrames
// pins a frame with a column of every kind): two groups keyed by a string and
// an int64, under AVG(a) and MIN(m).
var goldenGroupBy = []byte{
	byte(KindGroupBy),
	2, // agg exprs
	1, 3, 'A', 'V', 'G', 1, 'a', exprNil,
	1, 3, 'M', 'I', 'N', 1, 'm', exprNil,
	0,                 // aggs
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

// TestGoldenGroupBy: the hand-written bytes decode to the table they describe
// and that table encodes to them.
func TestGoldenGroupBy(t *testing.T) {
	r, err := DecodeIntermediate(goldenGroupBy)
	if err != nil {
		t.Fatal(err)
	}
	g := r.Groups
	if g.Len() != 2 || fmt.Sprint(g.Values(0), g.Values(1)) != "[us -3] [ 300]" {
		t.Fatalf("decoded keys %v %v", g.Values(0), g.Values(1))
	}
	if avg, min := g.State(0, 0), g.State(0, 1); avg.Result() != 2.0 || min.Result() != 2.0 || g.State(1, 1).Seen {
		t.Errorf("decoded states %+v %+v %+v", avg, min, g.State(1, 1))
	}
	if again := mustEncode(t, r); string(again) != string(goldenGroupBy) {
		t.Errorf("re-encoded bytes differ:\n got %v\nwant %v", again, goldenGroupBy)
	}
}

// FuzzDecodeIntermediate searches for bytes that break the decoder's
// contract (checkDecode), seeded with every sample shape and its common
// corruptions. These bytes now also live in the caches, so the target sits
// where the layout does.
func FuzzDecodeIntermediate(f *testing.F) {
	f.Add(goldenGroupBy)
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
// them to the same limit: empty aggregation expressions over a group, key
// columns of one row, one-member sets, and a group count no column backs.
func TestDecodeAllocationWorstCases(t *testing.T) {
	const n = 2000
	head := func(e *wire.Encoder, exprs, cols, groups int) {
		e.Raw(byte(KindGroupBy))
		e.Count(exprs)
		for i := 0; i < exprs; i++ {
			e.Raw(0, 0, 0, exprNil) // not an aggregate, no function, no column, no argument
		}
		e.Count(0) // aggs
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
			e.Count(0) // aggs
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

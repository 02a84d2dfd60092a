package query

import (
	"fmt"
	"reflect"
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
		Groups:    map[string]*GroupEntry{},
		Stats:     Stats{NumDocsScanned: 9, GroupStateBytes: 512, DictExprSegments: 1},
	}
	for i, country := range []string{"us", "de"} {
		g := &GroupEntry{Values: []any{country, int64(i * 3600)}}
		for _, x := range exprs {
			g.Aggs = append(g.Aggs, NewAggState(x.Func))
		}
		g.Aggs[0].AddDistinct("m1")
		g.Aggs[0].AddDistinct(fmt.Sprint("m", i+2))
		g.Aggs[1].AddNumeric(12.5)
		g.Aggs[1].AddNumeric(float64(i))
		g.Aggs[2].AddNumeric(-4)
		groupBy.Groups[GroupKey(g.Values)] = g
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
		if !reflect.DeepEqual(back, r) {
			t.Errorf("%s: round trip changed the value:\n got %+v\nwant %+v", name, back, r)
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
	if !reflect.DeepEqual(back, r) {
		t.Fatalf("a decoded value changed when its bytes were overwritten:\n got %+v\nwant %+v", back, r)
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
		"group value": {&Intermediate{Groups: map[string]*GroupEntry{"k": {Values: []any{float32(1)}}}}, "unsupported cell type float32"},
		"nil state":   {&Intermediate{Aggs: []*AggState{nil}}, "nil aggregation state"},
		"nil group":   {&Intermediate{Groups: map[string]*GroupEntry{"k": nil}}, "nil group entry"},
		"deep cell":   {&Intermediate{Rows: [][]any{{deepCell}}}, "nested deeper"},
		"deep expr":   {&Intermediate{AggExprs: []pql.Expression{{Arg: deepExpr}}}, "nested deeper"},
		"expr node":   {&Intermediate{AggExprs: []pql.Expression{{Arg: unknownExpr{}}}}, "unsupported expression node"},
	} {
		if b, err := EncodeIntermediate(c.r); err == nil || !strings.Contains(err.Error(), c.want) || b != nil {
			t.Errorf("%s: %d bytes, err = %v; want no bytes and %q", name, len(b), err, c.want)
		}
	}
}

// unknownExpr is an expression node the parser never builds.
type unknownExpr struct{ pql.ColumnRef }

// allocatedBy meters the bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkDecode is the decoder's contract over arbitrary bytes, shared by the
// fuzz target and the exhaustive mutation test: no panic, never (nil, nil),
// allocation linear in the input (c: the costliest element per input byte is
// an aggregation state, 96 bytes and its pointer for 3; k: the fixed structs
// and the error), and whatever decodes encodes again to bytes that decode to
// an equal value — a cache can store anything it was able to read.
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
		t.Fatalf("re-encoding changed the value:\n got %+v\nwant %+v", back, r)
	}
}

// equalIntermediates is reflect.DeepEqual except that NaN equals NaN (DeepEqual
// compares floats with ==, and arbitrary bytes decode to NaNs freely).
func equalIntermediates(a, b *Intermediate) bool {
	if reflect.DeepEqual(a, b) {
		return true
	}
	// Compare by bytes of a deterministic rendering: %v prints NaN as NaN
	// and maps in key order.
	return fmt.Sprintf("%#v", flatten(a)) == fmt.Sprintf("%#v", flatten(b))
}

// flatten renders an intermediate without pointers, so %#v shows values.
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
	groups := map[string]group{}
	for k, g := range r.Groups {
		groups[k] = group{g.Values, states(g.Aggs)}
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

// FuzzDecodeIntermediate searches for bytes that break the decoder's
// contract (checkDecode), seeded with every sample shape and its common
// corruptions. These bytes now also live in the caches, so the target sits
// where the layout does.
func FuzzDecodeIntermediate(f *testing.F) {
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

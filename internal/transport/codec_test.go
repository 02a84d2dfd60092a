package transport

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"pinot/internal/pql"
	"pinot/internal/qctx"
	"pinot/internal/query"
	"pinot/internal/wire"
)

// The tags and bounds of the Intermediate layout (internal/query/wire.go),
// restated as numbers: the golden frames below pin them, so renumbering a tag
// in the engine fails TestGoldenFrames instead of silently moving with it.
const (
	cellInt64, cellFloat64, cellString, cellBool, cellList = 1, 2, 3, 4, 5 // the first four also tag a group key column

	exprNil, exprColumn, exprCall = 0, 1, 4
)

// sampleMessages returns one message of every frame type, several for the
// segment frame, between them covering every construct the codec carries: a
// selection with a multi-value cell, a group-by with a DISTINCTCOUNT set and
// percentile values, Arith and Call aggregation arguments, an aggregation
// without GROUP BY under every function, a trace, and the four
// completion-protocol messages.
func sampleMessages() map[string]any {
	agg := query.NewAggIntermediate([]pql.Expression{
		{IsAgg: true, Func: pql.Count, Column: "*"},
		{IsAgg: true, Func: pql.Sum, Column: "clicks"},
		{IsAgg: true, Func: pql.Avg, Column: "clicks"},
		{IsAgg: true, Func: pql.Min, Column: "rev"},
		{IsAgg: true, Func: pql.Max, Column: "rev"},
		{IsAgg: true, Func: pql.DistinctCount, Column: "member"},
		{IsAgg: true, Func: "PERCENTILE95", Column: "latency"},
	})
	for a, s := range []query.AggState{
		{Count: 42}, {Sum: 3.5}, {Sum: -7, Count: 3}, {Min: 0.25, Seen: true}, {Max: math.Inf(-1)},
		{Distinct: map[string]struct{}{"": {}, "m9": {}}}, {Values: []float64{3.5, -1}},
	} {
		agg.Groups.SetState(0, a, s)
	}

	selection := &query.Intermediate{
		Kind:       query.KindSelection,
		SelectCols: []string{"id", "tags", "score", "ok", "ts"},
		HiddenCols: 1,
		Rows: [][]any{
			{int64(7), []any{"a", "b"}, 2.5, true, int64(-3)},
			{int64(8), []any{}, -0.5, false, int64(900)},
		},
		Stats: query.Stats{NumDocsScanned: 2, NumEntriesScanned: 10, NumSegmentsQueried: 1, SegmentsMatched: 1, TotalDocs: 50},
	}

	exprs := []pql.Expression{
		{IsAgg: true, Func: pql.DistinctCount, Column: "member"},
		{IsAgg: true, Func: "PERCENTILE95", Column: "(latency * 2)",
			Arg: pql.Arith{Op: pql.OpMul, L: pql.ColumnRef{Name: "latency"}, R: pql.Literal{Value: int64(2)}}},
		{IsAgg: true, Func: pql.Max, Column: "abs(delta)",
			Arg: pql.Call{Name: "abs", Args: []pql.Expr{pql.ColumnRef{Name: "delta"}}}},
	}
	groupBy := &query.Intermediate{
		Kind:      query.KindGroupBy,
		AggExprs:  exprs,
		GroupCols: []string{"country", "bucket"},
		Groups:    query.NewGroupTable(2, exprs),
		Stats:     query.Stats{NumDocsScanned: 9, GroupStateBytes: 512, DictExprSegments: 1},
	}
	for i, country := range []string{"us", "de"} {
		addGroup(groupBy.Groups, []any{country, int64(i * 3600)},
			&query.AggState{Distinct: map[string]struct{}{"m1": {}, fmt.Sprint("m", i+2): {}}},
			&query.AggState{Values: []float64{12.5, float64(i)}},
			&query.AggState{Max: -4, Seen: true})
	}

	return map[string]any{
		"query": &QueryRequest{
			Resource: "events_OFFLINE", PQL: "SELECT count(*) FROM events",
			Segments: []string{"events_0", "events_1"}, Tenant: "t", TimeoutMillis: 250, QueryID: "q1", BudgetMillis: 100,
		},
		"segment-agg":       &SegmentFrame{Seq: 0, Result: agg},
		"segment-selection": &SegmentFrame{Seq: 1, Result: selection},
		"segment-groupby":   &SegmentFrame{Seq: 2, Result: groupBy},
		"final": &FinalFrame{
			Frames: 3, Exceptions: []string{"warn"},
			Trace: qctx.Trace{qctx.PhaseQueue: 5 * time.Microsecond, qctx.PhaseExecute: 3 * time.Millisecond},
			Stats: query.Stats{NumDocsScanned: 7, NumSegmentsQueried: 4, SegmentsPrunedByServer: 1, SegmentsPrunedByValue: 2},
		},
		"error":         &ErrorFrame{Message: "boom"},
		"consumed":      &SegmentConsumedRequest{Segment: "s__0__1", Resource: "events_REALTIME", Instance: "server1", Offset: 4096},
		"consumed-resp": &SegmentConsumedResponse{Action: ActionCatchup, TargetOffset: 5000},
		"commit":        &SegmentCommitRequest{Segment: "s__0__1", Resource: "events_REALTIME", Instance: "server1", Offset: 5000, Blob: []byte("segment bytes")},
		"commit-resp":   &SegmentCommitResponse{Success: false, Reason: "not the committer"},
	}
}

// addGroup finds or adds the group of a key and sets its states, one per
// aggregate of the table.
func addGroup(g *query.GroupTable, values []any, states ...*query.AggState) {
	ord, err := g.Upsert(values)
	if err != nil {
		panic(err)
	}
	for a, s := range states {
		g.SetState(ord, a, *s)
	}
}

// roundTrip sends a message through its frame encoder and typed decoder.
func roundTrip(t testing.TB, msg any) any {
	t.Helper()
	frame, err := DecodeFrame(encodeFrame(t, msg))
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeTyped(t, frame.Type, frame.Payload)
	if err != nil {
		t.Fatalf("%T: %v", msg, err)
	}
	return back
}

func TestSampleMessagesRoundTrip(t *testing.T) {
	for name, msg := range sampleMessages() {
		if d := firstDiff(name, reflect.ValueOf(roundTrip(t, msg)), reflect.ValueOf(msg)); d != "" {
			t.Errorf("round trip changed the message: %s", d)
		}
	}
}

// ---- completeness by reflection ----

// filler sets every exported field reachable from a value to a distinct
// non-zero value, so a field the codec does not carry comes back zero and
// fails the comparison.
type filler struct {
	n int64
	// noKeys makes every Intermediate an aggregation without GROUP BY: no
	// group column and the table's one row.
	noKeys bool
}

func (f *filler) next() int64 { f.n++; return f.n }

var (
	anyType        = reflect.TypeOf((*any)(nil)).Elem()
	exprType       = reflect.TypeOf((*pql.Expr)(nil)).Elem()
	groupTableType = reflect.TypeOf((*query.GroupTable)(nil))
)

// stateFuncs has a function for every field of an AggState that a group
// table's state columns carry.
var stateFuncs = []pql.AggFunc{pql.Count, pql.Sum, pql.Avg, pql.Min, pql.Max, pql.DistinctCount, "PERCENTILE50"}

func (f *filler) fill(v reflect.Value) {
	if v.Type() == reflect.TypeOf(query.Intermediate{}) {
		f.fillIntermediate(v)
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(f.next() * 1000003) // wider than one varint byte, distinct per field
	case reflect.Uint8:
		v.SetUint(uint64(query.KindGroupBy)) // the only uint8 is ResultKind
	case reflect.Float64:
		v.SetFloat(float64(f.next()) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", f.next()))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			f.fill(v.Index(i))
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			f.fill(k)
			f.fill(e)
			v.SetMapIndex(k, e)
		}
	case reflect.Interface:
		switch v.Type() {
		case anyType:
			// One of each dynamic cell type in turn.
			cells := []any{f.n * 7919, float64(f.n) + 0.5, fmt.Sprintf("c%d", f.n), true, []any{fmt.Sprintf("mv%d", f.n), f.n}}
			v.Set(reflect.ValueOf(cells[f.next()%int64(len(cells))]))
		case exprType:
			v.Set(reflect.ValueOf(pql.Arith{
				Op: pql.OpDiv,
				L:  pql.Call{Name: fmt.Sprintf("fn%d", f.next()), Args: []pql.Expr{pql.ColumnRef{Name: fmt.Sprintf("col%d", f.next())}}},
				R:  pql.Literal{Value: float64(f.next())},
			}))
		default:
			panic("filler: interface " + v.Type().String())
		}
	default:
		panic("filler: kind " + v.Kind().String())
	}
}

// fillIntermediate fills an Intermediate field by field, except that its
// expressions and group table are built to agree, as the layout requires: one
// expression per function of stateFuncs, a key column of every type and two
// groups (or no key column and the one row), and every field of every state
// filled (a state column keeps the fields its function carries).
func (f *filler) fillIntermediate(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		if v.Type().Field(i).Type != groupTableType {
			f.fill(v.Field(i))
		}
	}
	r := v.Addr().Interface().(*query.Intermediate)
	r.AggExprs = r.AggExprs[:0]
	for _, fn := range stateFuncs {
		var x pql.Expression
		f.fill(reflect.ValueOf(&x).Elem())
		x.Func = fn
		r.AggExprs = append(r.AggExprs, x)
	}
	r.GroupCols = []string{"s", "l", "d", "b"}
	if f.noKeys {
		r.GroupCols = nil
	}
	r.Groups = query.NewGroupTable(len(r.GroupCols), r.AggExprs)
	for g := 0; g < 2; g++ {
		var states []*query.AggState
		for _, fn := range stateFuncs {
			s := &query.AggState{}
			f.fill(reflect.ValueOf(s).Elem())
			s.Func = fn
			states = append(states, s)
		}
		key := []any{fmt.Sprintf("k%d", f.next()), f.next() * 1000003, float64(f.next()) + 0.25, g == 0}
		addGroup(r.Groups, key[:len(r.GroupCols)], states...)
	}
}

// groupRows lists a group table's groups in order, each as its key and its
// states: what two tables are compared by (a table built by Upsert carries a
// hash index that a decoded one does not).
func groupRows(t *query.GroupTable, aggs int) [][]any {
	rows := make([][]any, t.Len())
	for i := range rows {
		rows[i] = t.Values(i)
		for a := 0; a < aggs; a++ {
			rows[i] = append(rows[i], t.State(i, a))
		}
	}
	return rows
}

// firstDiff names the first place two values differ ("" when they are equal),
// so a lost field is reported by its path and not as two pointer values.
func firstDiff(path string, a, b reflect.Value) string {
	if a.IsValid() != b.IsValid() || (a.IsValid() && a.Type() != b.Type()) {
		return path + ": kinds differ"
	}
	if a.Type() == reflect.TypeOf(query.Intermediate{}) {
		// The group tables compare by their rows, under the intermediates'
		// expressions.
		aggs := a.FieldByName("AggExprs").Len()
		ta, tb := a.FieldByName("Groups").Interface().(*query.GroupTable), b.FieldByName("Groups").Interface().(*query.GroupTable)
		if d := firstDiff(path+".Groups", reflect.ValueOf(groupRows(ta, aggs)), reflect.ValueOf(groupRows(tb, aggs))); d != "" {
			return d
		}
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.Type() == groupTableType {
			return ""
		}
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": one side is nil"
			}
			return ""
		}
		return firstDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := firstDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d elements vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := firstDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d entries vs %d", path, a.Len(), b.Len())
		}
		for _, k := range a.MapKeys() {
			if d := firstDiff(fmt.Sprintf("%s[%v]", path, k), a.MapIndex(k), b.MapIndex(k)); d != "" {
				return d
			}
		}
	default:
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			return fmt.Sprintf("%s: got %v, want %v", path, a, b)
		}
	}
	return ""
}

// TestCodecCarriesEveryField fills every exported field of every message
// (through Intermediate, AggState, Stats, Expression and Trace) and requires
// the round trip to return it. A field added to any of those structs without
// codec support fails here. A group table holds an AggState field only under
// a function that carries it, so beyond the round trip every field of
// AggState must come back under at least one function of stateFuncs: a new
// state field has to be wired into a state column too.
func TestCodecCarriesEveryField(t *testing.T) {
	for _, noKeys := range []bool{false, true} {
		carried := map[string]bool{"Func": true}
		var probe query.Intermediate
		(&filler{noKeys: noKeys}).fill(reflect.ValueOf(&probe).Elem())
		groups := intermediateRoundTrip(t, &probe).Groups
		untouched := query.NewGroupTable(0, probe.AggExprs)
		for a := range stateFuncs {
			got, fresh := reflect.ValueOf(groups.State(0, a)), reflect.ValueOf(untouched.State(0, a))
			for i := 0; i < got.NumField(); i++ {
				if !reflect.DeepEqual(got.Field(i).Interface(), fresh.Field(i).Interface()) {
					carried[got.Type().Field(i).Name] = true
				}
			}
		}
		for i, typ := 0, reflect.TypeOf(query.AggState{}); i < typ.NumField(); i++ {
			if name := typ.Field(i).Name; !carried[name] {
				t.Errorf("no keys %v: no state column carries AggState.%s", noKeys, name)
			}
		}

		for _, msg := range []any{
			&QueryRequest{}, &SegmentFrame{}, &FinalFrame{}, &ErrorFrame{},
			&SegmentConsumedRequest{}, &SegmentConsumedResponse{}, &SegmentCommitRequest{}, &SegmentCommitResponse{},
		} {
			f := &filler{noKeys: noKeys}
			f.fill(reflect.ValueOf(msg).Elem())
			if d := firstDiff(fmt.Sprintf("%T", msg), reflect.ValueOf(roundTrip(t, msg)), reflect.ValueOf(msg)); d != "" {
				t.Errorf("no keys %v: the codec lost a field: %s", noKeys, d)
			}
		}
		resp := &QueryResponse{}
		(&filler{noKeys: noKeys}).fill(reflect.ValueOf(resp).Elem())
		data, err := EncodeResponse(resp)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeResponse(data)
		if err != nil {
			t.Fatal(err)
		}
		if d := firstDiff("QueryResponse", reflect.ValueOf(back), reflect.ValueOf(resp)); d != "" {
			t.Errorf("no keys %v: the codec lost a field: %s", noKeys, d)
		}
	}
}

// ---- value edge cases ----

func intermediateRoundTrip(t *testing.T, r *query.Intermediate) *query.Intermediate {
	t.Helper()
	return roundTrip(t, &SegmentFrame{Result: r}).(*SegmentFrame).Result
}

func TestCodecValueEdgeCases(t *testing.T) {
	t.Run("float bit patterns", func(t *testing.T) {
		payloadNaN := math.Float64frombits(0x7ff8_0000_dead_beef)
		floats := []float64{payloadNaN, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, math.MaxFloat64}
		row := make([]any, len(floats))
		for i, f := range floats {
			row[i] = f
		}
		agg := query.NewAggIntermediate([]pql.Expression{{Func: "PERCENTILE50"}, {Func: pql.Sum}, {Func: pql.Min}, {Func: pql.Max}})
		for a, s := range []query.AggState{{Values: floats}, {Sum: math.Copysign(0, -1)}, {Min: payloadNaN, Seen: true}, {Max: math.Inf(1), Seen: true}} {
			agg.Groups.SetState(0, a, s)
		}
		agg.Rows = [][]any{row}
		got := intermediateRoundTrip(t, agg)
		for i, f := range floats {
			if g := got.Rows[0][i].(float64); math.Float64bits(g) != math.Float64bits(f) {
				t.Errorf("cell %v came back as %v (bits %x vs %x)", f, g, math.Float64bits(g), math.Float64bits(f))
			}
			if g := got.Groups.State(0, 0).Values[i]; math.Float64bits(g) != math.Float64bits(f) {
				t.Errorf("percentile value %v came back as %v", f, g)
			}
		}
		sum, min, max := got.Groups.State(0, 1).Sum, got.Groups.State(0, 2).Min, got.Groups.State(0, 3).Max
		if !math.Signbit(sum) || sum != 0 || math.Float64bits(min) != math.Float64bits(payloadNaN) || !math.IsInf(max, 1) {
			t.Errorf("state floats changed: %v %v %v", sum, min, max)
		}
	})

	t.Run("untouched and zero states", func(t *testing.T) {
		// A fresh state (Min +Inf) and an all-zero state are different
		// values; both survive.
		agg := query.NewAggIntermediate([]pql.Expression{{Func: pql.Min}, {Func: pql.Min}})
		agg.Groups.SetState(0, 1, query.AggState{})
		got := intermediateRoundTrip(t, agg).Groups
		if fresh, zero := got.State(0, 0), got.State(0, 1); !math.IsInf(fresh.Min, 1) || zero.Min != 0 || fresh.Seen || zero.Seen {
			t.Errorf("got %+v %+v", fresh, zero)
		}
	})

	t.Run("integers and strings", func(t *testing.T) {
		row := []any{int64(math.MinInt64), int64(math.MaxInt64), int64(0), int64(-1), "", "\x00", strings.Repeat("x", 300)}
		got := intermediateRoundTrip(t, &query.Intermediate{Kind: query.KindSelection, SelectCols: []string{""}, Rows: [][]any{row}})
		if !reflect.DeepEqual(got.Rows[0], row) || !reflect.DeepEqual(got.SelectCols, []string{""}) {
			t.Errorf("got %#v", got)
		}
	})

	// A zero count decodes to nil: an empty and an absent slice or map are
	// one value on the wire (as they were under gob). Merge, Finalize and
	// Conforms accept both. The one exception is a multi-value cell, which
	// stays a non-nil []any{} so it renders as [] on both transports.
	t.Run("empty is nil", func(t *testing.T) {
		in := &query.Intermediate{
			Kind: query.KindGroupBy, AggExprs: []pql.Expression{}, GroupCols: []string{},
			Groups: query.NewGroupTable(1, nil), SelectCols: []string{}, Rows: [][]any{},
		}
		got := intermediateRoundTrip(t, in)
		if !reflect.DeepEqual(got, &query.Intermediate{Kind: query.KindGroupBy}) {
			t.Errorf("empty collections did not decode to nil: %#v", got)
		}
		if err := got.Merge(intermediateRoundTrip(t, in)); err != nil {
			t.Fatal(err)
		}
		if res := got.Finalize(&pql.Query{}); len(res.Rows) != 0 {
			t.Errorf("finalized %d rows from no groups", len(res.Rows))
		}
		// A DISTINCTCOUNT that met no value decodes to a set that takes a merge.
		exprs := []pql.Expression{{IsAgg: true, Func: pql.DistinctCount, Column: "m"}}
		dc, one := intermediateRoundTrip(t, query.NewAggIntermediate(exprs)), query.NewAggIntermediate(exprs)
		one.Groups.SetState(0, 0, query.AggState{Distinct: map[string]struct{}{"a": {}}})
		if err := dc.Merge(one); err != nil {
			t.Fatal(err)
		}
		if rows := dc.Finalize(&pql.Query{}).Rows; !reflect.DeepEqual(rows, [][]any{{int64(1)}}) {
			t.Errorf("distinct after merge into a decoded empty state = %v", rows)
		}
	})

	t.Run("zero-row selection", func(t *testing.T) {
		got := intermediateRoundTrip(t, &query.Intermediate{Kind: query.KindSelection, SelectCols: []string{"a", "b"}})
		if got.Rows != nil || len(got.SelectCols) != 2 {
			t.Errorf("got %#v", got)
		}
		if res := got.Finalize(&pql.Query{Limit: 10}); len(res.Rows) != 0 || len(res.Columns) != 2 {
			t.Errorf("finalized %+v", res)
		}
	})

	t.Run("multi-value cells", func(t *testing.T) {
		in := &query.Intermediate{Kind: query.KindSelection, Rows: [][]any{{[]any{}}, {}, {[]any(nil)}}}
		got := intermediateRoundTrip(t, in)
		if c, ok := got.Rows[0][0].([]any); !ok || c == nil || len(c) != 0 {
			t.Errorf("empty multi-value cell = %#v, want []any{}", got.Rows[0][0])
		}
		if c, ok := got.Rows[2][0].([]any); !ok || c == nil {
			t.Errorf("nil multi-value cell = %#v, want []any{}", got.Rows[2][0])
		}
		if got.Rows[1] != nil {
			t.Errorf("empty row = %#v, want nil", got.Rows[1])
		}
		// A group key is one of the four scalar types; a list is refused
		// where the table is built, not on the wire.
		if _, err := query.NewGroupTable(1, nil).Upsert([]any{[]any{"x"}}); err == nil {
			t.Errorf("a multi-value group key was accepted")
		}
	})

	t.Run("distinct count", func(t *testing.T) {
		inter := query.NewAggIntermediate([]pql.Expression{{IsAgg: true, Func: pql.DistinctCount, Column: "m"}})
		inter.Groups.SetState(0, 0, query.AggState{Distinct: map[string]struct{}{"a": {}, "b": {}}})
		if rows := intermediateRoundTrip(t, inter).Finalize(&pql.Query{}).Rows; !reflect.DeepEqual(rows, [][]any{{int64(2)}}) {
			t.Fatalf("distinct = %v", rows)
		}
	})
}

// ---- what the encoder refuses ----

func TestEncoderRefusesWhatItCannotCarry(t *testing.T) {
	deepCell := any("leaf")
	for i := 0; i <= wire.MaxNesting; i++ {
		deepCell = []any{deepCell}
	}
	var deepExpr pql.Expr = pql.ColumnRef{Name: "c"}
	for i := 0; i <= wire.MaxNesting; i++ {
		deepExpr = pql.Arith{Op: pql.OpAdd, L: deepExpr, R: pql.Literal{Value: int64(1)}}
	}
	type point struct{ X int }
	for name, r := range map[string]*query.Intermediate{
		"int cell":      {Rows: [][]any{{int(1)}}},
		"uint32 cell":   {Rows: [][]any{{uint32(1)}}},
		"duration cell": {Rows: [][]any{{time.Second}}},
		"struct cell":   {Rows: [][]any{{point{1}}}},
		"nil cell":      {Rows: [][]any{{nil}}},
		"nested cell":   {Rows: [][]any{{[]any{int32(1)}}}},
		"literal":       {AggExprs: []pql.Expression{{Arg: pql.Literal{Value: int(3)}}}},
		"group shape":   {Groups: oneGroup(), GroupCols: []string{"a", "b"}},
		"group func":    {Groups: oneGroup(), GroupCols: []string{"a"}, AggExprs: []pql.Expression{{Func: pql.Sum}}},
		"deep cell":     {Rows: [][]any{{deepCell}}},
		"deep expr":     {AggExprs: []pql.Expression{{Arg: deepExpr}}},
	} {
		if _, err := EncodeResponse(&QueryResponse{Result: r}); err == nil {
			t.Errorf("%s: encoded without error", name)
		}
	}
	// One level inside the cap passes in both directions.
	okCell := any("leaf")
	for i := 0; i < wire.MaxNesting; i++ {
		okCell = []any{okCell}
	}
	in := &query.Intermediate{Kind: query.KindSelection, Rows: [][]any{{okCell}}}
	if got := roundTrip(t, &SegmentFrame{Result: in}).(*SegmentFrame).Result; !reflect.DeepEqual(got.Rows, in.Rows) {
		t.Errorf("cell at the nesting cap changed")
	}
}

// oneGroup is a table of one string key under COUNT.
func oneGroup() *query.GroupTable {
	g := query.NewGroupTable(1, []pql.Expression{{Func: pql.Count}})
	addGroup(g, []any{"k"})
	return g
}

// ---- hostile input ----

// TestDecoderRefusesDeepNesting hand-builds payloads nested one level past
// the cap, which the encoder would never write.
func TestDecoderRefusesDeepNesting(t *testing.T) {
	var e wire.Encoder
	e.Varint(0)                         // seq
	e.Raw(byte(query.KindSelection), 0) // no agg exprs
	e.Count(0)                          // group cols
	e.Count(0)                          // groups
	e.Count(0)                          // select cols
	e.Varint(0)                         // hidden cols
	e.Count(1)                          // one row
	e.Count(1)                          // one cell in total
	e.Count(1)                          // of one cell
	for i := 0; i <= wire.MaxNesting; i++ {
		e.Raw(cellList, 1)
	}
	e.Raw(cellBool, 1)
	query.AppendStats(&e, &query.Stats{})
	if _, err := DecodeSegmentFrame(e.Bytes()); err == nil || !strings.Contains(err.Error(), "nested deeper") {
		t.Fatalf("cell nested past the cap: err = %v", err)
	}

	e = wire.Encoder{}
	e.Varint(0)
	e.Raw(byte(query.KindGroupBy))
	e.Count(1) // one agg expr
	e.Bool(true)
	e.Str("SUM")
	e.Str("x")
	for i := 0; i <= wire.MaxNesting; i++ {
		e.Raw(exprCall, 0, 1) // call "" with one argument
	}
	e.Raw(exprNil)
	e.Raw(make([]byte, 64)...)
	if _, err := DecodeSegmentFrame(e.Bytes()); err == nil || !strings.Contains(err.Error(), "nested deeper") {
		t.Fatalf("expression nested past the cap: err = %v", err)
	}
}

// allocatedBy reports the bytes f allocates, as the smallest of a few runs so
// that a concurrent background allocation cannot inflate it.
func allocatedBy(f func()) uint64 {
	best := uint64(math.MaxUint64)
	var m0, m1 runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		if d := m1.TotalAlloc - m0.TotalAlloc; d < best {
			best = d
		}
	}
	return best
}

// TestDecodeAllocationIsLinear: a decode of n bytes allocates at most c·n + k
// bytes whatever its length prefixes claim. Every position of every sample
// payload is overwritten in turn with a count of 1<<31 (and with 1<<62), the
// payload is cut to 32 bytes after it, and the decode is metered.
func TestDecodeAllocationIsLinear(t *testing.T) {
	// c: the costliest bytes are the four of an empty aggregation expression
	// over a group table (a 56-byte Expression and a 152-byte state column);
	// a column of a group table costs 8 to 16 bytes a row of at least one
	// byte, checked against the bytes that remain column by column
	// (internal/query's TestDecodeAllocationWorstCases builds each). k: the
	// fixed structs of a message and the error that reports the refusal.
	const c, k = 64, 4096
	huge := [][]byte{
		{0x80, 0x80, 0x80, 0x80, 0x08},                               // 1<<31
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40},       // 1<<62
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // 1<<64 - 1
	}
	check := func(name string, n int, decode func()) {
		if got, limit := allocatedBy(decode), uint64(c*n+k); got > limit {
			t.Errorf("%s: decoding %d bytes allocated %d, limit %d", name, n, got, limit)
		}
	}
	for name, frame := range sampleFrames(t) {
		typ, payload := frame[2], frame[FrameHeaderSize:]
		check(name, len(payload), func() { decodeTyped(t, typ, payload) })
		for i := range payload {
			for _, h := range huge {
				mut := append(append([]byte(nil), payload[:i]...), h...)
				rest := payload[i+1:]
				if len(rest) > 32 {
					rest = rest[:32]
				}
				mut = append(mut, rest...)
				check(fmt.Sprintf("%s@%d", name, i), len(mut), func() { decodeTyped(t, typ, mut) })
			}
		}
	}
	// The whole-response decoder shares the code; one direct probe.
	resp := append([]byte{1, 2, 0, 0, 0}, huge[0]...)
	check("response", len(resp), func() { DecodeResponse(resp) })
}

// ---- golden bytes ----

// TestGoldenFrames pins the exact bytes of one small frame of each type,
// header included, so a change of format is a visible diff here (and a
// reason to bump frameVersion).
func TestGoldenFrames(t *testing.T) {
	agg := query.NewAggIntermediate([]pql.Expression{{IsAgg: true, Func: pql.Count, Column: "*"}, {IsAgg: true, Func: pql.Sum, Column: "x", Arg: pql.ColumnRef{Name: "x"}}})
	agg.Groups.SetState(0, 0, query.AggState{Count: 3})
	agg.Groups.SetState(0, 1, query.AggState{Sum: 1.5})
	agg.Stats = query.Stats{NumDocsScanned: 3, ResultCacheHit: true}
	cases := []struct {
		name string
		msg  any
		want []byte
	}{
		{"query", &QueryRequest{Resource: "r", PQL: "q", Segments: []string{"s0"}, Tenant: "t", TimeoutMillis: 5, QueryID: "id", BudgetMillis: -1}, []byte{
			'P', 4, FrameQuery, 0, 0, 0, 0, 15,
			1, 'r', 1, 'q', 1, 2, 's', '0', 1, 't', 10, 2, 'i', 'd', 1,
		}},
		{"segment aggregation", &SegmentFrame{Seq: 1, Result: agg}, []byte{
			'P', 4, FrameSegment, 0, 0, 0, 0, 56,
			2, // seq 1
			0, // kind
			2, // agg exprs
			1, 5, 'C', 'O', 'U', 'N', 'T', 1, '*', exprNil,
			1, 3, 'S', 'U', 'M', 1, 'x', exprColumn, 1, 'x',
			0,    // group cols
			1,    // the one row of no key
			1, 6, // COUNT count: 3
			1, 0x3f, 0xf8, 0, 0, 0, 0, 0, 0, // SUM sum: 1.5
			0,    // select cols
			0,    // hidden cols
			0, 0, // rows, their cells
			6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, // stats
		}},
		{"segment selection", &SegmentFrame{Result: &query.Intermediate{
			Kind: query.KindSelection, SelectCols: []string{"a"}, HiddenCols: 1,
			Rows: [][]any{{int64(-2)}, {[]any{"m", 2.0, false}}},
		}}, []byte{
			'P', 4, FrameSegment, 0, 0, 0, 0, 47,
			0, 1, 0, 0, 0, // seq, kind, agg exprs, group cols, groups
			1, 1, 'a', // select cols
			2,    // hidden cols 1
			2, 2, // two rows, two cells
			1, cellInt64, 3,
			1, cellList, 3, cellString, 1, 'm', cellFloat64, 0x40, 0, 0, 0, 0, 0, 0, 0, cellBool, 0,
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		}},
		{"segment group-by", &SegmentFrame{Result: goldenGroupBy()}, []byte{
			'P', 4, FrameSegment, 0, 0, 0, 0, 176,
			0, 0, // seq, kind
			4, // agg exprs
			1, 12, 'P', 'E', 'R', 'C', 'E', 'N', 'T', 'I', 'L', 'E', '9', '0', 1, 'p', exprNil,
			1, 13, 'D', 'I', 'S', 'T', 'I', 'N', 'C', 'T', 'C', 'O', 'U', 'N', 'T', 1, 'd', exprNil,
			1, 3, 'M', 'I', 'N', 1, 'm', exprNil,
			1, 3, 'A', 'V', 'G', 1, 'a', exprNil,
			4, 1, 's', 1, 'l', 1, 'f', 1, 'b', // group cols
			2,                           // groups
			cellString, 1, 'k', 2, 1, 0, // key s: the bytes "k", then two lengths
			cellInt64, 2, 5, 0xd8, 0x04, // key l: -3, 300
			cellFloat64, 2, 0x40, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, // key f: 2, -0
			cellBool, 2, 2, 0, // key b: true, false as varints
			1, 0x40, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, // PERCENTILE90 values: one value in all, then two list lengths
			2, 4, 0, 1, 'x', 1, 'y', // DISTINCTCOUNT: set sizes 2 and 0 as the count column, then the members, sorted
			2, 0x40, 0, 0, 0, 0, 0, 0, 0, 0x7f, 0xf0, 0, 0, 0, 0, 0, 0, // MIN extreme: 2, +Inf
			2, 1, 0, // MIN seen
			2, 2, 0, // AVG count: 1, 0
			2, 0x40, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // AVG sum: 2, 0
			0, 0, 0, 0, // select cols, hidden cols, rows, cells
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		}},
		{"final", &FinalFrame{Frames: 2, Exceptions: []string{"e"}, Trace: qctx.Trace{qctx.PhaseQueue: 3}, Stats: query.Stats{TotalDocs: 64}}, []byte{
			'P', 4, FrameFinal, 0, 0, 0, 0, 29,
			4, 1, 1, 'e',
			1, 5, 'q', 'u', 'e', 'u', 'e', 6,
			0, 0, 0, 0, 0x80, 0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		}},
		{"error", &ErrorFrame{Message: "no"}, []byte{'P', 4, FrameError, 0, 0, 0, 0, 3, 2, 'n', 'o'}},
		{"consumed", &SegmentConsumedRequest{Segment: "s", Resource: "r", Instance: "i", Offset: 64}, []byte{
			'P', 4, FrameConsumed, 0, 0, 0, 0, 8, 1, 's', 1, 'r', 1, 'i', 0x80, 0x01,
		}},
		{"consumed response", &SegmentConsumedResponse{Action: ActionHold, TargetOffset: 1}, []byte{
			'P', 4, FrameConsumedResp, 0, 0, 0, 0, 6, 4, 'H', 'O', 'L', 'D', 2,
		}},
		{"commit", &SegmentCommitRequest{Segment: "s", Resource: "r", Instance: "i", Offset: 1, Blob: []byte{0xca, 0xfe}}, []byte{
			'P', 4, FrameCommit, 0, 0, 0, 0, 10, 1, 's', 1, 'r', 1, 'i', 2, 2, 0xca, 0xfe,
		}},
		{"commit response", &SegmentCommitResponse{Success: true, Reason: "ok"}, []byte{
			'P', 4, FrameCommitResp, 0, 0, 0, 0, 4, 1, 2, 'o', 'k',
		}},
	}
	for _, c := range cases {
		got := encodeFrame(t, c.msg)
		if !bytes.Equal(got, c.want) {
			t.Errorf("%s: frame bytes changed\n got %v\nwant %v", c.name, got, c.want)
			continue
		}
		if d := firstDiff(c.name, reflect.ValueOf(roundTrip(t, c.msg)), reflect.ValueOf(c.msg)); d != "" {
			t.Errorf("golden frame decodes to another value: %s", d)
		}
	}
}

// goldenGroupBy is a group-by of two groups with a key column of every type
// and a state column of every kind: values, a set, an extreme and its seen
// bit, a sum and a count.
func goldenGroupBy() *query.Intermediate {
	exprs := []pql.Expression{
		{IsAgg: true, Func: "PERCENTILE90", Column: "p"},
		{IsAgg: true, Func: pql.DistinctCount, Column: "d"},
		{IsAgg: true, Func: pql.Min, Column: "m"},
		{IsAgg: true, Func: pql.Avg, Column: "a"},
	}
	r := &query.Intermediate{Kind: query.KindGroupBy, AggExprs: exprs, GroupCols: []string{"s", "l", "f", "b"}, Groups: query.NewGroupTable(4, exprs)}
	addGroup(r.Groups, []any{"k", int64(-3), 2.0, true},
		&query.AggState{Values: []float64{2}},
		&query.AggState{Distinct: map[string]struct{}{"y": {}, "x": {}}},
		&query.AggState{Min: 2, Seen: true},
		&query.AggState{Sum: 2, Count: 1})
	addGroup(r.Groups, []any{"", int64(300), math.Copysign(0, -1), false},
		&query.AggState{},
		&query.AggState{},
		&query.AggState{Min: math.Inf(1)},
		&query.AggState{})
	return r
}

// ---- allocation budget ----

// TestWireAllocBudget pins what the codec allocates per frame, encode plus
// decode, so the gain over gob is held by tier-1 and not only by the
// repository benchmark. The ceilings are a few above today's counts; beside
// each is what the gob path needed for the same frame at the commit before
// the codec (a fresh encoder and decoder per frame, as the data plane used
// them).
func TestWireAllocBudget(t *testing.T) {
	selection := &SegmentFrame{Result: &query.Intermediate{
		Kind: query.KindSelection, SelectCols: []string{"itemId", "impressions"},
		Rows:  [][]any{{int64(1001), int64(7)}, {int64(1002), int64(900)}, {int64(1003), int64(12)}, {int64(1004), int64(3000)}},
		Stats: query.Stats{NumDocsScanned: 4, NumEntriesScanned: 8, NumSegmentsQueried: 1, SegmentsMatched: 1, TotalDocs: 50000},
	}}
	exprs := []pql.Expression{{IsAgg: true, Func: pql.Sum, Column: "value"}, {IsAgg: true, Func: pql.Count, Column: "*"}}
	groupBy := &SegmentFrame{Result: &query.Intermediate{
		Kind: query.KindGroupBy, AggExprs: exprs, GroupCols: []string{"bucket"}, Groups: query.NewGroupTable(1, exprs),
	}}
	const groups = 200
	for i := 0; i < groups; i++ {
		addGroup(groupBy.Result.Groups, []any{int64(1000 + i)}, &query.AggState{Sum: float64(i) * 1.5}, &query.AggState{Count: int64(i + 1)})
	}
	aggregation := &SegmentFrame{Result: query.NewAggIntermediate(exprs)}
	aggregation.Result.Groups.SetState(0, 0, query.AggState{Sum: 1.5})
	aggregation.Result.Groups.SetState(0, 1, query.AggState{Count: 3})
	final := &FinalFrame{
		Frames: 4, Trace: qctx.Trace{qctx.PhaseQueue: time.Microsecond, qctx.PhaseExecute: time.Millisecond},
		Stats: query.Stats{NumSegmentsQueried: 4, SegmentsPrunedByServer: 1},
	}
	for _, c := range []struct {
		name    string
		msg     any
		ceiling float64 // allocations, encode + decode
		gob     int     // the same at the parent commit
	}{
		// Decode: frame, intermediate, column slice + 2 names, rows,
		// arena, a box for each cell above 255.
		{"selection 4x2", selection, 16, 558},
		// Decode: frame, intermediate, two expressions and their column
		// names, the group column, the table, its two column slices, one
		// slice per key and state column. Nothing per group.
		{"group-by 200x2", groupBy, 20, 3552},
		// The same without the group column, its name and its key column.
		{"aggregation 1x2", aggregation, 12, 0},
		// Decode: frame, trace map, two phase names.
		{"final", final, 8, 293},
	} {
		whole := encodeFrame(t, c.msg)
		typ, frame := whole[2], whole[FrameHeaderSize:]
		got := testing.AllocsPerRun(20, func() {
			var err error
			switch m := c.msg.(type) {
			case *SegmentFrame:
				_, err = sendFrame(io.Discard, typ, func(e *wire.Encoder) { encodeSegmentFrame(e, m.Seq, m.Result) })
			case *FinalFrame:
				_, err = sendFrame(io.Discard, typ, func(e *wire.Encoder) { encodeFinalFrame(e, m) })
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decodeTyped(t, typ, frame); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per encode+decode (gob: %d)", c.name, got, c.gob)
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocations per encode+decode, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}

package query

import (
	"math"

	"pinot/internal/pql"
	"pinot/internal/wire"
)

// The byte layout of an Intermediate: the one encoder and the one decoder of
// everything result.go and agg.go declare, written with the primitives of
// internal/wire. The data plane ships these bytes inside its frames
// (internal/transport/codec.go calls AppendIntermediate/ReadIntermediate and
// AppendStats/ReadStats) and both cache tiers keep them as their value
// (EncodeIntermediate/DecodeIntermediate). DESIGN.md ("Network transport") has
// the layout field by field; what is particular to this file:
//
//   - a zero count decodes to a nil slice or map (which Merge, Finalize and
//     Conforms accept), except that an empty multi-value cell stays []any{}
//     so it keeps rendering as [] not null;
//   - groups and rows decode into slabs sized from declared totals, so a
//     decode costs a handful of allocations plus one per string and boxed
//     value, whatever the number of groups;
//   - nothing decoded aliases the input: a decoded Intermediate is private to
//     its caller, which may Merge into it and Finalize it.

// Tags of a dynamically typed cell (group values, selection cells, literals):
// exactly the five concrete types the engine puts into an `any`.
const (
	cellInt64   = 1 // zigzag varint
	cellFloat64 = 2 // 8 bytes, IEEE bits
	cellString  = 3 // string
	cellBool    = 4 // 1 byte
	cellList    = 5 // uvarint count + cells (a multi-value cell)
)

// Tags of an expression node in an aggregation argument tree.
const (
	exprNil    = 0
	exprColumn = 1 // name
	exprLit    = 2 // cell
	exprArith  = 3 // op string, left, right
	exprCall   = 4 // name, uvarint count, args
)

// Smallest encodings, used to bound a count by the bytes that remain.
const (
	minCellBytes  = 2 // tag + one payload byte
	minStateBytes = 3 // func ref, count, flags
	minGroupBytes = 3 // key length, value count, state count
	minExprBytes  = 4 // isAgg, func length, column length, arg tag
)

// AggState flags.
const (
	stateSeen     = 1 << iota // Seen
	stateNumeric              // Sum, Min, Max follow (else 0, +Inf, -Inf: a state no value was folded into)
	stateDistinct             // the Distinct set follows
	stateValues               // the percentile Values follow
)

// funcTableSize bounds the per-intermediate table of aggregation function
// names. A state names its function by position in the table (seeded from
// AggExprs, extended by each literal name) so that a group-by carries each
// name once, and the decoder allocates each once.
const funcTableSize = 16

type funcTable struct {
	names [funcTableSize]pql.AggFunc
	n     int
}

func (t *funcTable) add(fn pql.AggFunc) {
	if t.n < funcTableSize {
		t.names[t.n] = fn
		t.n++
	}
}

func (t *funcTable) index(fn pql.AggFunc) int {
	for i := 0; i < t.n; i++ {
		if t.names[i] == fn {
			return i
		}
	}
	return -1
}

// ---- encoding ----

// EncodeIntermediate returns r's bytes in a slice of exactly their length
// that the caller owns (what a cache stores and charges for). It fails on a
// value the layout does not carry: a cell outside the five types, a nil
// state or group, nesting past wire.MaxNesting.
func EncodeIntermediate(r *Intermediate) ([]byte, error) {
	e := wire.GetEncoder()
	defer e.Release()
	AppendIntermediate(e, r)
	if err := e.Err(); err != nil {
		return nil, err
	}
	out := make([]byte, len(e.Bytes()))
	copy(out, e.Bytes())
	return out, nil
}

// AppendStats appends s; every field, in declaration order.
func AppendStats(e *wire.Encoder, s *Stats) {
	e.Varint(s.NumDocsScanned)
	e.Varint(s.NumEntriesScanned)
	e.Varint(int64(s.NumSegmentsQueried))
	e.Varint(int64(s.NumSegmentsMatched))
	e.Varint(s.TotalDocs)
	e.Varint(int64(s.StarTreeSegments))
	e.Varint(s.StarTreeRecordsScanned)
	e.Varint(s.StarTreeRawDocs)
	e.Varint(int64(s.MetadataOnlySegments))
	e.Varint(int64(s.SegmentsPrunedByBroker))
	e.Varint(int64(s.SegmentsPrunedByServer))
	e.Varint(int64(s.SegmentsPrunedByValue))
	e.Varint(int64(s.SegmentsMatched))
	e.Varint(s.GroupStateBytes)
	e.Bool(s.ResultCacheHit)
	e.Varint(int64(s.DictExprSegments))
}

func appendCell(e *wire.Encoder, v any, depth int) {
	switch x := v.(type) {
	case int64:
		e.Raw(cellInt64)
		e.Varint(x)
	case float64:
		e.Raw(cellFloat64)
		e.Float(x)
	case string:
		e.Raw(cellString)
		e.Str(x)
	case bool:
		e.Raw(cellBool)
		e.Bool(x)
	case []any:
		if depth >= wire.MaxNesting {
			e.Fail("cell nested deeper than %d", wire.MaxNesting)
			return
		}
		e.Raw(cellList)
		e.Count(len(x))
		for _, c := range x {
			appendCell(e, c, depth+1)
		}
	default:
		e.Fail("unsupported cell type %T", v)
	}
}

func appendExpr(e *wire.Encoder, x pql.Expr, depth int) {
	if depth >= wire.MaxNesting {
		e.Fail("expression nested deeper than %d", wire.MaxNesting)
		return
	}
	switch n := x.(type) {
	case nil:
		e.Raw(exprNil)
	case pql.ColumnRef:
		e.Raw(exprColumn)
		e.Str(n.Name)
	case pql.Literal:
		e.Raw(exprLit)
		appendCell(e, n.Value, depth+1)
	case pql.Arith:
		e.Raw(exprArith)
		e.Str(string(n.Op))
		appendExpr(e, n.L, depth+1)
		appendExpr(e, n.R, depth+1)
	case pql.Call:
		e.Raw(exprCall)
		e.Str(n.Name)
		e.Count(len(n.Args))
		for _, a := range n.Args {
			appendExpr(e, a, depth+1)
		}
	default:
		e.Fail("unsupported expression node %T", x)
	}
}

func appendAggState(e *wire.Encoder, funcs *funcTable, s *AggState) {
	if s == nil {
		e.Fail("nil aggregation state")
		return
	}
	if i := funcs.index(s.Func); i >= 0 {
		e.Count(i + 1)
	} else {
		e.Count(0)
		e.Str(string(s.Func))
		funcs.add(s.Func)
	}
	e.Varint(s.Count)
	var flags byte
	if s.Seen {
		flags |= stateSeen
	}
	if s.Sum != 0 || math.Signbit(s.Sum) || !math.IsInf(s.Min, 1) || !math.IsInf(s.Max, -1) {
		flags |= stateNumeric
	}
	if len(s.Distinct) > 0 {
		flags |= stateDistinct
	}
	if len(s.Values) > 0 {
		flags |= stateValues
	}
	e.Raw(flags)
	if flags&stateNumeric != 0 {
		e.Float(s.Sum)
		e.Float(s.Min)
		e.Float(s.Max)
	}
	if flags&stateDistinct != 0 {
		e.Count(len(s.Distinct))
		for k := range s.Distinct {
			e.Str(k)
		}
	}
	if flags&stateValues != 0 {
		e.Count(len(s.Values))
		for _, v := range s.Values {
			e.Float(v)
		}
	}
}

func appendAggStates(e *wire.Encoder, funcs *funcTable, ss []*AggState) {
	e.Count(len(ss))
	for _, s := range ss {
		appendAggState(e, funcs, s)
	}
}

// AppendIntermediate appends r to a message under construction; a value the
// layout does not carry is recorded in e.Err.
func AppendIntermediate(e *wire.Encoder, r *Intermediate) {
	var funcs funcTable
	e.Raw(byte(r.Kind))
	e.Count(len(r.AggExprs))
	for _, x := range r.AggExprs {
		e.Bool(x.IsAgg)
		e.Str(string(x.Func))
		e.Str(x.Column)
		appendExpr(e, x.Arg, 0)
		funcs.add(x.Func)
	}
	appendAggStates(e, &funcs, r.Aggs)
	e.Strs(r.GroupCols)

	// The totals let the decoder take one slab for all group values and one
	// for all states instead of two allocations per group.
	var values, states int
	for _, g := range r.Groups {
		if g == nil {
			e.Fail("nil group entry")
			return
		}
		values += len(g.Values)
		states += len(g.Aggs)
	}
	e.Count(len(r.Groups))
	e.Count(values)
	e.Count(states)
	for k, g := range r.Groups {
		e.Str(k)
		e.Count(len(g.Values))
		for _, v := range g.Values {
			appendCell(e, v, 0)
		}
		appendAggStates(e, &funcs, g.Aggs)
	}

	e.Strs(r.SelectCols)
	e.Varint(int64(r.HiddenCols))
	cells := 0
	for _, row := range r.Rows {
		cells += len(row)
	}
	e.Count(len(r.Rows))
	e.Count(cells)
	for _, row := range r.Rows {
		e.Count(len(row))
		for _, v := range row {
			appendCell(e, v, 0)
		}
	}
	AppendStats(e, &r.Stats)
}

// ---- decoding ----

// DecodeIntermediate reverses EncodeIntermediate. Any byte sequence yields a
// value or an error, never a panic, and allocates no more than a constant
// factor of its own length; the value shares no memory with b.
func DecodeIntermediate(b []byte) (*Intermediate, error) {
	d := wire.NewDecoder(b)
	r := ReadIntermediate(&d)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return r, nil
}

// ReadStats reverses AppendStats.
func ReadStats(d *wire.Decoder, s *Stats) {
	s.NumDocsScanned = d.Varint()
	s.NumEntriesScanned = d.Varint()
	s.NumSegmentsQueried = d.Int()
	s.NumSegmentsMatched = d.Int()
	s.TotalDocs = d.Varint()
	s.StarTreeSegments = d.Int()
	s.StarTreeRecordsScanned = d.Varint()
	s.StarTreeRawDocs = d.Varint()
	s.MetadataOnlySegments = d.Int()
	s.SegmentsPrunedByBroker = d.Int()
	s.SegmentsPrunedByServer = d.Int()
	s.SegmentsPrunedByValue = d.Int()
	s.SegmentsMatched = d.Int()
	s.GroupStateBytes = d.Varint()
	s.ResultCacheHit = d.Bool()
	s.DictExprSegments = d.Int()
}

// readAggFunc reads a function name, reusing the constant for the fixed names.
func readAggFunc(d *wire.Decoder) pql.AggFunc {
	b := d.Bytes()
	for _, fn := range [...]pql.AggFunc{pql.Count, pql.Sum, pql.Min, pql.Max, pql.Avg, pql.DistinctCount} {
		if string(b) == string(fn) {
			return fn
		}
	}
	return pql.AggFunc(b)
}

func readCell(d *wire.Decoder, depth int) any {
	switch tag := d.Byte(); tag {
	case cellInt64:
		return d.Varint()
	case cellFloat64:
		return d.Float()
	case cellString:
		return d.Str()
	case cellBool:
		return d.Bool()
	case cellList:
		if depth >= wire.MaxNesting {
			d.Fail("cell nested deeper than %d", wire.MaxNesting)
			return nil
		}
		out := make([]any, d.Count(minCellBytes))
		for i := range out {
			out[i] = readCell(d, depth+1)
		}
		return out
	default:
		d.Fail("unknown cell tag %d", tag)
		return nil
	}
}

// readCells fills dst, a window of a slab the caller sized from a checked count.
func readCells(d *wire.Decoder, dst []any) {
	for i := range dst {
		dst[i] = readCell(d, 0)
	}
}

func readExpr(d *wire.Decoder, depth int) pql.Expr {
	if depth >= wire.MaxNesting {
		d.Fail("expression nested deeper than %d", wire.MaxNesting)
		return nil
	}
	switch tag := d.Byte(); tag {
	case exprNil:
		return nil
	case exprColumn:
		return pql.ColumnRef{Name: d.Str()}
	case exprLit:
		return pql.Literal{Value: readCell(d, depth+1)}
	case exprArith:
		op := pql.ArithOp(d.Str())
		l := readExpr(d, depth+1)
		return pql.Arith{Op: op, L: l, R: readExpr(d, depth+1)}
	case exprCall:
		c := pql.Call{Name: d.Str()}
		if n := d.Count(1); n > 0 {
			c.Args = make([]pql.Expr, n)
			for i := range c.Args {
				c.Args[i] = readExpr(d, depth+1)
			}
		}
		return c
	default:
		d.Fail("unknown expression tag %d", tag)
		return nil
	}
}

func readAggState(d *wire.Decoder, funcs *funcTable, s *AggState) {
	if ref := d.Uvarint(); ref == 0 {
		s.Func = readAggFunc(d)
		funcs.add(s.Func)
	} else if ref <= uint64(funcs.n) {
		s.Func = funcs.names[ref-1]
	} else {
		d.Fail("aggregation function ref %d of %d", ref, funcs.n)
	}
	s.Count = d.Varint()
	flags := d.Byte()
	if flags >= stateValues<<1 {
		d.Fail("aggregation state flags 0x%02x", flags)
	}
	s.Seen = flags&stateSeen != 0
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	if flags&stateNumeric != 0 {
		s.Sum, s.Min, s.Max = d.Float(), d.Float(), d.Float()
	}
	// An empty set or list under its flag is not what the encoder writes;
	// like every zero count it decodes to nil.
	if flags&stateDistinct != 0 {
		if n := d.Count(1); n > 0 {
			s.Distinct = make(map[string]struct{}, n)
			for i := 0; i < n; i++ {
				s.Distinct[d.Str()] = struct{}{}
			}
		}
	}
	if flags&stateValues != 0 {
		if n := d.Count(8); n > 0 {
			s.Values = make([]float64, n)
			for i := range s.Values {
				s.Values[i] = d.Float()
			}
		}
	}
}

// readAggStates decodes into windows of the two slabs (states and the pointers
// to them) and returns the pointer window.
func readAggStates(d *wire.Decoder, funcs *funcTable, states []AggState, ptrs []*AggState) []*AggState {
	for i := range states {
		readAggState(d, funcs, &states[i])
		ptrs[i] = &states[i]
	}
	return ptrs
}

// ReadIntermediate reads one intermediate out of a message being decoded;
// the verdict is d's (Err, Finish). The name table is a local of its own:
// its strings flow into the result, and d can stay on its caller's stack.
func ReadIntermediate(d *wire.Decoder) *Intermediate {
	var funcs funcTable
	r := &Intermediate{}
	kind := d.Byte()
	if kind > byte(KindSelection) {
		d.Fail("unknown result kind %d", kind)
	}
	r.Kind = ResultKind(kind)
	if n := d.Count(minExprBytes); n > 0 {
		r.AggExprs = make([]pql.Expression, n)
		for i := range r.AggExprs {
			x := &r.AggExprs[i]
			x.IsAgg = d.Bool()
			x.Func = readAggFunc(d)
			x.Column = d.Str()
			x.Arg = readExpr(d, 0)
			funcs.add(x.Func)
		}
	}
	if n := d.Count(minStateBytes); n > 0 {
		r.Aggs = readAggStates(d, &funcs, make([]AggState, n), make([]*AggState, n))
	}
	r.GroupCols = d.Strs()

	// Groups and rows decode into slabs sized from the declared totals: one
	// allocation each for the entries, the values, the states and the state
	// pointers, whatever the number of groups.
	groups := d.Count(minGroupBytes)
	values := make([]any, d.Count(minCellBytes))
	nStates := d.Count(minStateBytes)
	states, ptrs := make([]AggState, nStates), make([]*AggState, nStates)
	if groups > 0 {
		entries := make([]GroupEntry, groups)
		r.Groups = make(map[string]*GroupEntry, groups)
		for i := range entries {
			g := &entries[i]
			key := d.Str()
			if n := d.Count(minCellBytes); n > len(values) {
				d.Fail("group values exceed the declared total")
			} else if n > 0 {
				g.Values, values = values[:n:n], values[n:]
				readCells(d, g.Values)
			}
			if n := d.Count(minStateBytes); n > len(states) {
				d.Fail("group states exceed the declared total")
			} else if n > 0 {
				g.Aggs = readAggStates(d, &funcs, states[:n], ptrs[:n:n])
				states, ptrs = states[n:], ptrs[n:]
			}
			r.Groups[key] = g
		}
		if d.Err() == nil && len(r.Groups) != groups {
			d.Fail("duplicate group keys")
		}
	}
	if len(values) > 0 || len(states) > 0 {
		d.Fail("group values or states fall short of the declared totals")
	}

	r.SelectCols = d.Strs()
	r.HiddenCols = d.Int()
	rows := d.Count(1)
	arena := make([]any, d.Count(minCellBytes))
	if rows > 0 {
		r.Rows = make([][]any, rows)
		for i := range r.Rows {
			if n := d.Count(minCellBytes); n > len(arena) {
				d.Fail("row cells exceed the declared total")
			} else if n > 0 {
				r.Rows[i], arena = arena[:n:n], arena[n:]
				readCells(d, r.Rows[i])
			}
		}
	}
	if len(arena) > 0 {
		d.Fail("row cells fall short of the declared total")
	}
	ReadStats(d, &r.Stats)
	return r
}

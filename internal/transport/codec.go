package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"pinot/internal/pql"
	"pinot/internal/qctx"
	"pinot/internal/query"
)

// The payload codec of the data plane: one hand-written encoder and one
// decoder per message, no reflection. DESIGN.md ("Network transport") has the
// byte layout of every message; the rules that hold everywhere are:
//
//   - integers are varints (zigzag for signed fields), float64 is its raw
//     IEEE-754 bits big-endian (NaN payloads, ±Inf and -0.0 survive), a bool
//     is one byte that must be 0 or 1, a string is a uvarint length + bytes;
//   - every count and length is checked against the bytes that remain
//     *before* anything is allocated for it, so decoding n bytes allocates
//     O(n) whatever the prefixes claim;
//   - a zero count decodes to a nil slice or map (what gob yielded, and what
//     Merge, Finalize and Conforms already accept), except that an empty
//     multi-value cell stays []any{} so it keeps rendering as [] not null;
//   - recursion (expression trees, nested []any cells) stops at maxNesting;
//   - the decoder never aliases its input: strings and blobs are copies, so
//     a result held by a cache does not pin a frame buffer;
//   - a payload must be consumed exactly; trailing bytes are an error.

// maxNesting caps the depth of an expression tree or of nested []any cells.
// The parser produces trees a few levels deep; the cap is what keeps a
// hostile payload from recursing the decoder off its stack.
const maxNesting = 32

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
// AggExprs, extended by each literal name) so that a group-by frame carries
// each name once, and the decoder allocates each once.
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

// ---- encoder ----

// encoder appends one message to b. An unsupported value (a cell outside the
// five types, a nil state) records the first error and keeps going; the
// caller checks err before the bytes leave the process.
type encoder struct {
	b     []byte
	funcs funcTable
	err   error
}

func (e *encoder) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("transport: encode: "+format, args...)
	}
}

func (e *encoder) varint(v int64)  { e.b = binary.AppendVarint(e.b, v) }
func (e *encoder) count(n int)     { e.b = binary.AppendUvarint(e.b, uint64(n)) }
func (e *encoder) float(f float64) { e.b = binary.BigEndian.AppendUint64(e.b, math.Float64bits(f)) }

func (e *encoder) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *encoder) string(s string) {
	e.count(len(s))
	e.b = append(e.b, s...)
}

func (e *encoder) strings(ss []string) {
	e.count(len(ss))
	for _, s := range ss {
		e.string(s)
	}
}

func (e *encoder) cell(v any, depth int) {
	switch x := v.(type) {
	case int64:
		e.b = append(e.b, cellInt64)
		e.varint(x)
	case float64:
		e.b = append(e.b, cellFloat64)
		e.float(x)
	case string:
		e.b = append(e.b, cellString)
		e.string(x)
	case bool:
		e.b = append(e.b, cellBool)
		e.bool(x)
	case []any:
		if depth >= maxNesting {
			e.fail("cell nested deeper than %d", maxNesting)
			return
		}
		e.b = append(e.b, cellList)
		e.count(len(x))
		for _, c := range x {
			e.cell(c, depth+1)
		}
	default:
		e.fail("unsupported cell type %T", v)
	}
}

func (e *encoder) expr(x pql.Expr, depth int) {
	if depth >= maxNesting {
		e.fail("expression nested deeper than %d", maxNesting)
		return
	}
	switch n := x.(type) {
	case nil:
		e.b = append(e.b, exprNil)
	case pql.ColumnRef:
		e.b = append(e.b, exprColumn)
		e.string(n.Name)
	case pql.Literal:
		e.b = append(e.b, exprLit)
		e.cell(n.Value, depth+1)
	case pql.Arith:
		e.b = append(e.b, exprArith)
		e.string(string(n.Op))
		e.expr(n.L, depth+1)
		e.expr(n.R, depth+1)
	case pql.Call:
		e.b = append(e.b, exprCall)
		e.string(n.Name)
		e.count(len(n.Args))
		for _, a := range n.Args {
			e.expr(a, depth+1)
		}
	default:
		e.fail("unsupported expression node %T", x)
	}
}

func (e *encoder) aggState(s *query.AggState) {
	if s == nil {
		e.fail("nil aggregation state")
		return
	}
	if i := e.funcs.index(s.Func); i >= 0 {
		e.count(i + 1)
	} else {
		e.count(0)
		e.string(string(s.Func))
		e.funcs.add(s.Func)
	}
	e.varint(s.Count)
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
	e.b = append(e.b, flags)
	if flags&stateNumeric != 0 {
		e.float(s.Sum)
		e.float(s.Min)
		e.float(s.Max)
	}
	if flags&stateDistinct != 0 {
		e.count(len(s.Distinct))
		for k := range s.Distinct {
			e.string(k)
		}
	}
	if flags&stateValues != 0 {
		e.count(len(s.Values))
		for _, v := range s.Values {
			e.float(v)
		}
	}
}

func (e *encoder) aggStates(ss []*query.AggState) {
	e.count(len(ss))
	for _, s := range ss {
		e.aggState(s)
	}
}

func (e *encoder) stats(s *query.Stats) {
	e.varint(s.NumDocsScanned)
	e.varint(s.NumEntriesScanned)
	e.varint(int64(s.NumSegmentsQueried))
	e.varint(int64(s.NumSegmentsMatched))
	e.varint(s.TotalDocs)
	e.varint(int64(s.StarTreeSegments))
	e.varint(s.StarTreeRecordsScanned)
	e.varint(s.StarTreeRawDocs)
	e.varint(int64(s.MetadataOnlySegments))
	e.varint(int64(s.SegmentsPrunedByBroker))
	e.varint(int64(s.SegmentsPrunedByServer))
	e.varint(int64(s.SegmentsPrunedByValue))
	e.varint(int64(s.SegmentsMatched))
	e.varint(s.GroupStateBytes)
	e.bool(s.ResultCacheHit)
	e.varint(int64(s.DictExprSegments))
}

func (e *encoder) intermediate(r *query.Intermediate) {
	e.b = append(e.b, byte(r.Kind))
	e.funcs.n = 0
	e.count(len(r.AggExprs))
	for _, x := range r.AggExprs {
		e.bool(x.IsAgg)
		e.string(string(x.Func))
		e.string(x.Column)
		e.expr(x.Arg, 0)
		e.funcs.add(x.Func)
	}
	e.aggStates(r.Aggs)
	e.strings(r.GroupCols)

	// The totals let the decoder take one slab for all group values and one
	// for all states instead of two allocations per group.
	var values, states int
	for _, g := range r.Groups {
		if g == nil {
			e.fail("nil group entry")
			return
		}
		values += len(g.Values)
		states += len(g.Aggs)
	}
	e.count(len(r.Groups))
	e.count(values)
	e.count(states)
	for k, g := range r.Groups {
		e.string(k)
		e.count(len(g.Values))
		for _, v := range g.Values {
			e.cell(v, 0)
		}
		e.aggStates(g.Aggs)
	}

	e.strings(r.SelectCols)
	e.varint(int64(r.HiddenCols))
	cells := 0
	for _, row := range r.Rows {
		cells += len(row)
	}
	e.count(len(r.Rows))
	e.count(cells)
	for _, row := range r.Rows {
		e.count(len(row))
		for _, v := range row {
			e.cell(v, 0)
		}
	}
	e.stats(&r.Stats)
}

func (e *encoder) trace(t qctx.Trace) {
	e.count(len(t))
	for p, d := range t {
		e.string(string(p))
		e.varint(int64(d))
	}
}

func (e *encoder) queryRequest(r *QueryRequest) {
	e.string(r.Resource)
	e.string(r.PQL)
	e.strings(r.Segments)
	e.string(r.Tenant)
	e.varint(r.TimeoutMillis)
	e.string(r.QueryID)
	e.varint(r.BudgetMillis)
}

func (e *encoder) segmentFrame(seq int, res *query.Intermediate) {
	e.varint(int64(seq))
	if res == nil {
		e.fail("segment frame %d has no result", seq)
		return
	}
	e.intermediate(res)
}

func (e *encoder) finalFrame(f *FinalFrame) {
	e.varint(int64(f.Frames))
	e.strings(f.Exceptions)
	e.trace(f.Trace)
	e.stats(&f.Stats)
}

func (e *encoder) queryResponse(r *QueryResponse) {
	e.bool(r.Result != nil)
	if r.Result != nil {
		e.intermediate(r.Result)
	}
	e.strings(r.Exceptions)
	e.trace(r.Trace)
}

func (e *encoder) consumedRequest(r *SegmentConsumedRequest) {
	e.string(r.Segment)
	e.string(r.Resource)
	e.string(r.Instance)
	e.varint(r.Offset)
}

func (e *encoder) consumedResponse(r *SegmentConsumedResponse) {
	e.string(string(r.Action))
	e.varint(r.TargetOffset)
}

func (e *encoder) commitRequest(r *SegmentCommitRequest) {
	e.string(r.Segment)
	e.string(r.Resource)
	e.string(r.Instance)
	e.varint(r.Offset)
	e.count(len(r.Blob))
	e.b = append(e.b, r.Blob...)
}

func (e *encoder) commitResponse(r *SegmentCommitResponse) {
	e.bool(r.Success)
	e.string(r.Reason)
}

// ---- decoder ----

// decoder consumes one payload front to back. The first malformed field
// records err and empties b, after which every read yields a zero value and
// every count is 0, so callers run to their end without checking each step.
type decoder struct {
	b     []byte
	funcs funcTable
	err   error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("transport: decode: "+format, args...)
	}
	d.b = nil
}

// finish reports the payload's verdict: the first error, or trailing bytes.
// Every rejected payload counts in the decode-failure metric.
func (d *decoder) finish() error {
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		wireMet.Load().decodeFails.Inc()
	}
	return d.err
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail("unexpected end of payload")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *decoder) bool() bool {
	c := d.byte()
	if c > 1 {
		d.fail("bool byte 0x%02x", c)
	}
	return c == 1
}

func (d *decoder) float() float64 {
	if len(d.b) < 8 {
		d.fail("unexpected end of payload")
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return math.Float64frombits(v)
}

// count reads an element count and refuses it unless that many elements of
// at least minBytes each can still follow. Callers allocate only after this.
func (d *decoder) count(minBytes int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/minBytes) {
		d.fail("count %d exceeds the %d bytes that remain", n, len(d.b))
		return 0
	}
	return int(n)
}

// bytes returns a length-prefixed run that aliases the payload.
func (d *decoder) bytes() []byte {
	n := d.count(1)
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) string() string { return string(d.bytes()) }

func (d *decoder) strings() []string {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.string()
	}
	return out
}

// aggFunc reads a function name, reusing the constant for the fixed names.
func (d *decoder) aggFunc() pql.AggFunc {
	b := d.bytes()
	for _, fn := range [...]pql.AggFunc{pql.Count, pql.Sum, pql.Min, pql.Max, pql.Avg, pql.DistinctCount} {
		if string(b) == string(fn) {
			return fn
		}
	}
	return pql.AggFunc(b)
}

func (d *decoder) cell(depth int) any {
	switch tag := d.byte(); tag {
	case cellInt64:
		return d.varint()
	case cellFloat64:
		return d.float()
	case cellString:
		return d.string()
	case cellBool:
		return d.bool()
	case cellList:
		if depth >= maxNesting {
			d.fail("cell nested deeper than %d", maxNesting)
			return nil
		}
		out := make([]any, d.count(minCellBytes))
		for i := range out {
			out[i] = d.cell(depth + 1)
		}
		return out
	default:
		d.fail("unknown cell tag %d", tag)
		return nil
	}
}

// cells fills dst, a window of a slab the caller sized from a checked count.
func (d *decoder) cells(dst []any) {
	for i := range dst {
		dst[i] = d.cell(0)
	}
}

func (d *decoder) expr(depth int) pql.Expr {
	if depth >= maxNesting {
		d.fail("expression nested deeper than %d", maxNesting)
		return nil
	}
	switch tag := d.byte(); tag {
	case exprNil:
		return nil
	case exprColumn:
		return pql.ColumnRef{Name: d.string()}
	case exprLit:
		return pql.Literal{Value: d.cell(depth + 1)}
	case exprArith:
		op := pql.ArithOp(d.string())
		l := d.expr(depth + 1)
		return pql.Arith{Op: op, L: l, R: d.expr(depth + 1)}
	case exprCall:
		c := pql.Call{Name: d.string()}
		if n := d.count(1); n > 0 {
			c.Args = make([]pql.Expr, n)
			for i := range c.Args {
				c.Args[i] = d.expr(depth + 1)
			}
		}
		return c
	default:
		d.fail("unknown expression tag %d", tag)
		return nil
	}
}

func (d *decoder) aggState(s *query.AggState) {
	if ref := d.uvarint(); ref == 0 {
		s.Func = d.aggFunc()
		d.funcs.add(s.Func)
	} else if ref <= uint64(d.funcs.n) {
		s.Func = d.funcs.names[ref-1]
	} else {
		d.fail("aggregation function ref %d of %d", ref, d.funcs.n)
	}
	s.Count = d.varint()
	flags := d.byte()
	if flags >= stateValues<<1 {
		d.fail("aggregation state flags 0x%02x", flags)
	}
	s.Seen = flags&stateSeen != 0
	s.Min, s.Max = math.Inf(1), math.Inf(-1)
	if flags&stateNumeric != 0 {
		s.Sum, s.Min, s.Max = d.float(), d.float(), d.float()
	}
	if flags&stateDistinct != 0 {
		n := d.count(1)
		s.Distinct = make(map[string]struct{}, n)
		for i := 0; i < n; i++ {
			s.Distinct[d.string()] = struct{}{}
		}
	}
	if flags&stateValues != 0 {
		s.Values = make([]float64, d.count(8))
		for i := range s.Values {
			s.Values[i] = d.float()
		}
	}
}

// aggStates decodes into windows of the two slabs (states and the pointers
// to them) and returns the pointer window.
func (d *decoder) aggStates(states []query.AggState, ptrs []*query.AggState) []*query.AggState {
	for i := range states {
		d.aggState(&states[i])
		ptrs[i] = &states[i]
	}
	return ptrs
}

func (d *decoder) stats(s *query.Stats) {
	s.NumDocsScanned = d.varint()
	s.NumEntriesScanned = d.varint()
	s.NumSegmentsQueried = d.int()
	s.NumSegmentsMatched = d.int()
	s.TotalDocs = d.varint()
	s.StarTreeSegments = d.int()
	s.StarTreeRecordsScanned = d.varint()
	s.StarTreeRawDocs = d.varint()
	s.MetadataOnlySegments = d.int()
	s.SegmentsPrunedByBroker = d.int()
	s.SegmentsPrunedByServer = d.int()
	s.SegmentsPrunedByValue = d.int()
	s.SegmentsMatched = d.int()
	s.GroupStateBytes = d.varint()
	s.ResultCacheHit = d.bool()
	s.DictExprSegments = d.int()
}

func (d *decoder) intermediate() *query.Intermediate {
	r := &query.Intermediate{}
	kind := d.byte()
	if kind > byte(query.KindSelection) {
		d.fail("unknown result kind %d", kind)
	}
	r.Kind = query.ResultKind(kind)
	d.funcs.n = 0
	if n := d.count(minExprBytes); n > 0 {
		r.AggExprs = make([]pql.Expression, n)
		for i := range r.AggExprs {
			x := &r.AggExprs[i]
			x.IsAgg = d.bool()
			x.Func = d.aggFunc()
			x.Column = d.string()
			x.Arg = d.expr(0)
			d.funcs.add(x.Func)
		}
	}
	if n := d.count(minStateBytes); n > 0 {
		r.Aggs = d.aggStates(make([]query.AggState, n), make([]*query.AggState, n))
	}
	r.GroupCols = d.strings()

	// Groups and rows decode into slabs sized from the declared totals: one
	// allocation each for the entries, the values, the states and the state
	// pointers, whatever the number of groups.
	groups := d.count(minGroupBytes)
	values := make([]any, d.count(minCellBytes))
	nStates := d.count(minStateBytes)
	states, ptrs := make([]query.AggState, nStates), make([]*query.AggState, nStates)
	if groups > 0 {
		entries := make([]query.GroupEntry, groups)
		r.Groups = make(map[string]*query.GroupEntry, groups)
		for i := range entries {
			g := &entries[i]
			key := d.string()
			if n := d.count(minCellBytes); n > len(values) {
				d.fail("group values exceed the declared total")
			} else if n > 0 {
				g.Values, values = values[:n:n], values[n:]
				d.cells(g.Values)
			}
			if n := d.count(minStateBytes); n > len(states) {
				d.fail("group states exceed the declared total")
			} else if n > 0 {
				g.Aggs = d.aggStates(states[:n], ptrs[:n:n])
				states, ptrs = states[n:], ptrs[n:]
			}
			r.Groups[key] = g
		}
		if d.err == nil && len(r.Groups) != groups {
			d.fail("duplicate group keys")
		}
	}
	if len(values) > 0 || len(states) > 0 {
		d.fail("group values or states fall short of the declared totals")
	}

	r.SelectCols = d.strings()
	r.HiddenCols = d.int()
	rows := d.count(1)
	arena := make([]any, d.count(minCellBytes))
	if rows > 0 {
		r.Rows = make([][]any, rows)
		for i := range r.Rows {
			if n := d.count(minCellBytes); n > len(arena) {
				d.fail("row cells exceed the declared total")
			} else if n > 0 {
				r.Rows[i], arena = arena[:n:n], arena[n:]
				d.cells(r.Rows[i])
			}
		}
	}
	if len(arena) > 0 {
		d.fail("row cells fall short of the declared total")
	}
	d.stats(&r.Stats)
	return r
}

func (d *decoder) trace() qctx.Trace {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	t := make(qctx.Trace, n)
	for i := 0; i < n; i++ {
		p := qctx.Phase(d.string())
		t[p] = time.Duration(d.varint())
	}
	return t
}

func (d *decoder) queryRequest() *QueryRequest {
	return &QueryRequest{
		Resource:      d.string(),
		PQL:           d.string(),
		Segments:      d.strings(),
		Tenant:        d.string(),
		TimeoutMillis: d.varint(),
		QueryID:       d.string(),
		BudgetMillis:  d.varint(),
	}
}

func (d *decoder) segmentFrame() *SegmentFrame {
	return &SegmentFrame{Seq: d.int(), Result: d.intermediate()}
}

func (d *decoder) finalFrame() *FinalFrame {
	f := &FinalFrame{Frames: d.int(), Exceptions: d.strings(), Trace: d.trace()}
	d.stats(&f.Stats)
	if f.Frames < 0 {
		d.fail("final frame claims %d segment frames", f.Frames)
	}
	return f
}

func (d *decoder) queryResponse() *QueryResponse {
	r := &QueryResponse{}
	if d.bool() {
		r.Result = d.intermediate()
	}
	r.Exceptions = d.strings()
	r.Trace = d.trace()
	return r
}

func (d *decoder) consumedRequest() *SegmentConsumedRequest {
	return &SegmentConsumedRequest{Segment: d.string(), Resource: d.string(), Instance: d.string(), Offset: d.varint()}
}

func (d *decoder) consumedResponse() *SegmentConsumedResponse {
	return &SegmentConsumedResponse{Action: SegmentConsumedAction(d.string()), TargetOffset: d.varint()}
}

func (d *decoder) commitRequest() *SegmentCommitRequest {
	r := &SegmentCommitRequest{Segment: d.string(), Resource: d.string(), Instance: d.string(), Offset: d.varint()}
	if blob := d.bytes(); len(blob) > 0 {
		r.Blob = append([]byte(nil), blob...)
	}
	return r
}

func (d *decoder) commitResponse() *SegmentCommitResponse {
	return &SegmentCommitResponse{Success: d.bool(), Reason: d.string()}
}

package query

import (
	"fmt"
	"math"
	"slices"

	"pinot/internal/pql"
	"pinot/internal/wire"
)

// The byte layout of an Intermediate and of a parsed query: the one encoder
// and the one decoder of everything result.go and grouptable.go declare, and
// of a pql.Query, written with the primitives of internal/wire. The data
// plane ships these bytes inside its frames (internal/transport/codec.go
// calls AppendQuery/ReadQuery for a request, AppendIntermediate/
// ReadIntermediate and AppendStats/ReadStats for a response) and both cache
// tiers keep an intermediate's bytes as their value (EncodeIntermediate/
// DecodeIntermediate). DESIGN.md ("Network transport") has the layout field
// by field; what is particular to this file:
//
//   - a query's expressions and literals and an intermediate's aggregations
//     share one expression and cell codec; the decoder makes each node
//     through the constructors the parser builds with, in their Strict form
//     (pql.Builder), so a server executes, and a broker merges, only a tree
//     Parse could have built;
//   - a zero count decodes to a nil slice, map, group table or selection
//     (which Merge, Finalize and Conforms accept);
//   - an aggregation travels as the columns of its GroupTable: one per GROUP
//     BY item (none without GROUP BY, whose table is one row) and one per
//     carried state field, each a count and then its values, strings as one
//     run of bytes and their lengths. Decoding one costs a handful of
//     allocations per column, whatever the number of groups, and no key string
//     exists anywhere;
//   - a selection travels as its Selection: the row count, then per column
//     the same key-column codec (a multi-value column's values end to end,
//     then each row's length). Every count is checked against the declared
//     row count and the bytes that remain before anything is allocated, and
//     no cell is boxed: Finalize boxes the rows it returns;
//   - nothing decoded aliases the input: a decoded Intermediate is private to
//     its caller, which may Merge into it and Finalize it.

// Tags of a dynamically typed cell (a literal): exactly the five concrete
// types the engine puts into an `any`. The first four are also the tags of a
// key column (keyKind), a group table's or a selection's.
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

// Tags of a predicate node in a query's filter.
const (
	predNil         = 0
	predComparison  = 1 // column, op string, cell
	predIn          = 2 // column, negated, uvarint count, cells
	predBetween     = 3 // column, cell, cell
	predAnd         = 4 // uvarint count, children
	predOr          = 5 // uvarint count, children
	predNot         = 6 // child
	predExprCompare = 7 // expression, op string, expression
)

// Smallest encodings, used to bound a count by the bytes that remain.
const (
	minCellBytes = 2 // tag + one payload byte
	minExprBytes = 4 // isAgg, func length, column length, arg tag
	minPredBytes = 2 // tag + one payload byte
)

// ---- encoding ----

// EncodeIntermediate returns r's bytes in a slice of exactly their length
// that the caller owns (what a cache stores and charges for). Equal values
// give equal bytes. It fails on a value the layout does not carry: a cell
// outside the five types, a group table that is not of the shape GroupCols
// and AggExprs declare, nesting past wire.MaxNesting.
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

// appendExpression appends one select item: an aggregation of an
// intermediate, or any item of a query.
func appendExpression(e *wire.Encoder, x pql.Expression) {
	e.Bool(x.IsAgg)
	e.Str(string(x.Func))
	e.Str(x.Column)
	appendExpr(e, x.Arg, 0)
}

func appendPred(e *wire.Encoder, p pql.Predicate, depth int) {
	if depth >= wire.MaxNesting {
		e.Fail("predicate nested deeper than %d", wire.MaxNesting)
		return
	}
	switch n := p.(type) {
	case nil:
		e.Raw(predNil)
	case pql.Comparison:
		e.Raw(predComparison)
		e.Str(n.Column)
		e.Str(string(n.Op))
		appendCell(e, n.Value, depth+1)
	case pql.In:
		e.Raw(predIn)
		e.Str(n.Column)
		e.Bool(n.Negated)
		e.Count(len(n.Values))
		for _, v := range n.Values {
			appendCell(e, v, depth+1)
		}
	case pql.Between:
		e.Raw(predBetween)
		e.Str(n.Column)
		appendCell(e, n.Lo, depth+1)
		appendCell(e, n.Hi, depth+1)
	case pql.And:
		e.Raw(predAnd)
		appendPreds(e, n.Children, depth+1)
	case pql.Or:
		e.Raw(predOr)
		appendPreds(e, n.Children, depth+1)
	case pql.Not:
		e.Raw(predNot)
		appendPred(e, n.Child, depth+1)
	case pql.ExprCompare:
		e.Raw(predExprCompare)
		appendExpr(e, n.LHS, depth+1)
		e.Str(string(n.Op))
		appendExpr(e, n.RHS, depth+1)
	default:
		e.Fail("unsupported predicate node %T", p)
	}
}

func appendPreds(e *wire.Encoder, ps []pql.Predicate, depth int) {
	e.Count(len(ps))
	for _, c := range ps {
		appendPred(e, c, depth)
	}
}

// AppendQuery appends a parsed query, the payload of a data-plane request:
// the table, the select items, the filter tree, the GROUP BY items and their
// expressions, ORDER BY, then TOP, OFFSET and LIMIT. A tree nested past
// wire.MaxNesting is recorded in e.Err.
func AppendQuery(e *wire.Encoder, q *pql.Query) {
	if q == nil {
		e.Fail("no query")
		return
	}
	e.Str(q.Table)
	e.Count(len(q.Select))
	for _, x := range q.Select {
		appendExpression(e, x)
	}
	appendPred(e, q.Filter, 0)
	e.Strs(q.GroupBy)
	e.Count(len(q.GroupByExprs))
	for _, x := range q.GroupByExprs {
		appendExpr(e, x, 0)
	}
	e.Count(len(q.OrderBy))
	for _, o := range q.OrderBy {
		e.Str(o.Column)
		e.Bool(o.Descending)
	}
	e.Varint(int64(q.Top))
	e.Varint(int64(q.Offset))
	e.Varint(int64(q.Limit))
}

// appendGroupTable appends r's groups column by column: the group count
// (zero ends it), then per GROUP BY item the column's kind and values, then
// per aggregate the fields its function carries. Every column opens with its
// own row count, so the decoder checks each against the bytes that remain
// before allocating it.
func appendGroupTable(e *wire.Encoder, r *Intermediate) {
	t := r.Groups
	e.Count(t.Len())
	if t.Len() == 0 {
		return
	}
	if len(t.keys) != len(r.GroupCols) || len(t.aggs) != len(r.AggExprs) || (len(t.keys) == 0 && t.n != 1) {
		e.Fail("group table of %d rows, %d keys and %d aggregates under %d group columns and %d expressions",
			t.n, len(t.keys), len(t.aggs), len(r.GroupCols), len(r.AggExprs))
		return
	}
	for c := range t.keys {
		appendKeyColumn(e, &t.keys[c], t.n)
	}
	for a := range t.aggs {
		c := &t.aggs[a]
		if c.fn != r.AggExprs[a].Func {
			e.Fail("group state column %d is %s under expression %s", a, c.fn, r.AggExprs[a].Func)
			return
		}
		if c.has&(fCount|fDistinct) != 0 {
			e.Count(t.n)
			for _, v := range c.count {
				e.Varint(v)
			}
		}
		if c.has&fSum != 0 {
			appendFloats(e, c.sum)
		}
		if c.has&(fMin|fMax) != 0 {
			appendFloats(e, c.extreme)
			e.Count(t.n)
			for _, b := range c.seen {
				e.Bool(b)
			}
		}
		if c.has&fValues != 0 {
			appendLists(e, c.values, func(vs []float64) {
				for _, v := range vs {
					e.Float(v)
				}
			})
		}
		if c.has&fDistinct != 0 {
			// The set sizes went out as the count column; the members follow
			// group by group, sorted so that equal sets give equal bytes.
			members := make([][]string, t.n)
			for m := range c.set {
				members[m.ord] = append(members[m.ord], m.val)
			}
			for _, ms := range members {
				slices.Sort(ms)
				for _, m := range ms {
					e.Str(m)
				}
			}
		}
	}
}

// appendKeyColumn appends a key column of n values: its kind, then the
// values, a run that opens with its count (strings as appendLists writes
// them). A column with no value may have no kind.
func appendKeyColumn(e *wire.Encoder, k *keyColumn, n int) {
	e.Raw(byte(k.kind))
	switch k.kind {
	case keyString:
		appendLists(e, k.strs, func(s string) { e.Chars(s) })
	case keyLong, keyBool:
		e.Count(n)
		for _, v := range k.nums {
			e.Varint(int64(v))
		}
	case keyDouble:
		e.Count(n)
		for _, v := range k.nums {
			e.Float(math.Float64frombits(v))
		}
	default:
		if n > 0 {
			e.Fail("key column of %d values is %v", n, k.kind)
		}
	}
}

// appendSelection appends a selection: its row count (zero ends it), then
// per column whether it is multi-value and its values as a key column; a
// multi-value column's values are every row's end to end, their total
// first, and its row lengths follow them.
func appendSelection(e *wire.Encoder, s *Selection) {
	e.Count(s.Len())
	if s.Len() == 0 {
		return
	}
	for c := range s.cols {
		k := &s.cols[c]
		offs := s.rowOffs(c)
		e.Bool(offs != nil)
		if offs == nil {
			appendKeyColumn(e, k, s.n)
			continue
		}
		e.Count(k.len())
		appendKeyColumn(e, k, k.len())
		for i := 0; i < s.n; i++ {
			e.Count(offs[i+1] - offs[i])
		}
	}
}

func appendFloats(e *wire.Encoder, vs []float64) {
	e.Count(len(vs))
	for _, v := range vs {
		e.Float(v)
	}
}

// appendLists appends a column of strings or lists as all their elements end
// to end (their total, then each through put), then the row count and each
// row's length: the decoder takes the elements as one run and windows it.
func appendLists[T ~string | ~[]float64](e *wire.Encoder, rows []T, put func(T)) {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	e.Count(total)
	for _, r := range rows {
		put(r)
	}
	e.Count(len(rows))
	for _, r := range rows {
		e.Count(len(r))
	}
}

// AppendIntermediate appends r to a message under construction; a value the
// layout does not carry is recorded in e.Err.
func AppendIntermediate(e *wire.Encoder, r *Intermediate) {
	e.Raw(byte(r.Kind))
	e.Count(len(r.AggExprs))
	for _, x := range r.AggExprs {
		appendExpression(e, x)
	}
	e.Strs(r.GroupCols)

	appendGroupTable(e, r)

	e.Strs(r.SelectCols)
	e.Varint(int64(r.HiddenCols))
	if r.Selection.Len() > 0 && len(r.Selection.cols) != len(r.SelectCols) {
		e.Fail("selection of %d columns under %d select columns", len(r.Selection.cols), len(r.SelectCols))
	}
	appendSelection(e, r.Selection)
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

// readName reads a name, returning the entry of known that it spells, if
// any, so that the common names cost no allocation.
func readName[T ~string](d *wire.Decoder, known ...T) T {
	b := d.Bytes()
	for _, k := range known {
		if string(b) == string(k) {
			return k
		}
	}
	return T(b)
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

// strict makes every node of a query the decoder reads, refusing what the
// parser would have rewritten, so a tree Parse could not have built fails
// the decode.
var strict = &pql.Builder{Strict: true}

// readExpr reads an expression tree, made node by node by strict.
func readExpr(d *wire.Decoder, depth int) pql.Expr {
	return readNode(d, d.Byte(), depth)
}

// readNode reads an expression node whose tag is read.
func readNode(d *wire.Decoder, tag byte, depth int) pql.Expr {
	if depth >= wire.MaxNesting {
		d.Fail("expression nested deeper than %d", wire.MaxNesting)
		return nil
	}
	var e pql.Expr
	var err error
	switch tag {
	case exprNil:
		return nil
	case exprColumn:
		e, err = strict.Column(d.Str())
	case exprLit:
		e, err = strict.Lit(readCell(d, depth+1))
	case exprArith:
		op := readName(d, pql.OpAdd, pql.OpSub, pql.OpMul, pql.OpDiv)
		l := readExpr(d, depth+1)
		e, err = strict.Arith(op, l, readExpr(d, depth+1))
	case exprCall:
		name := d.Str()
		var args []pql.Expr
		if n := d.Count(1); n > 0 {
			args = make([]pql.Expr, n)
			for i := range args {
				args[i] = readExpr(d, depth+1)
			}
		}
		e, err = strict.Call(name, args)
	default:
		d.Fail("unknown expression tag %d", tag)
		return nil
	}
	refuse(d, err)
	return e
}

// refuse fails the decode with what a pql constructor refused.
func refuse(d *wire.Decoder, err error) {
	if err != nil {
		d.Fail("pql: %w", err)
	}
}

// readExpression reverses appendExpression: a query's select item or an
// intermediate's aggregation, made by strict either way.
func readExpression(d *wire.Decoder, x *pql.Expression) {
	x.IsAgg = d.Bool()
	x.Func = readName(d, pql.Count, pql.Sum, pql.Min, pql.Max, pql.Avg, pql.DistinctCount)
	x.Column = d.Str()
	x.Arg = readExpr(d, 0)
	built, err := strict.Item(x.Func, x.Column, x.Arg)
	if err == nil && built.IsAgg != x.IsAgg {
		err = fmt.Errorf("select item %v carries IsAgg %v", built, x.IsAgg)
	}
	refuse(d, err)
}

// readPred reads a query's filter tree, made node by node by strict.
func readPred(d *wire.Decoder, depth int) pql.Predicate {
	if depth >= wire.MaxNesting {
		d.Fail("predicate nested deeper than %d", wire.MaxNesting)
		return nil
	}
	var p pql.Predicate
	var err error
	switch tag := d.Byte(); tag {
	case predNil:
		return nil
	case predComparison:
		col := d.Str()
		op := readName(d, pql.CompareOps[:]...)
		p, err = strict.Comparison(col, op, readCell(d, depth+1))
	case predIn:
		col, negated := d.Str(), d.Bool()
		var vals []any
		if n := d.Count(minCellBytes); n > 0 {
			vals = make([]any, n)
			for i := range vals {
				vals[i] = readCell(d, depth+1)
			}
		}
		p, err = strict.In(col, vals, negated)
	case predBetween:
		col := d.Str()
		lo := readCell(d, depth+1)
		p, err = strict.Between(col, lo, readCell(d, depth+1))
	case predAnd, predOr:
		p, err = strict.Junction(tag == predOr, readPreds(d, depth+1))
	case predNot:
		p, err = strict.Not(readPred(d, depth+1))
	case predExprCompare:
		// A bare column on the left may be any name, as a Comparison's may
		// (it renders quoted where it must): it is read as that name.
		if tag := d.Byte(); tag == exprColumn {
			col := d.Str()
			op := readName(d, pql.CompareOps[:]...)
			p, err = strict.CompareColumn(col, op, readExpr(d, depth+1))
		} else {
			lhs := readNode(d, tag, depth+1)
			op := readName(d, pql.CompareOps[:]...)
			p, err = strict.Compare(lhs, op, readExpr(d, depth+1))
		}
	default:
		d.Fail("unknown predicate tag %d", tag)
		return nil
	}
	refuse(d, err)
	return p
}

func readPreds(d *wire.Decoder, depth int) []pql.Predicate {
	n := d.Count(minPredBytes)
	if n == 0 {
		return nil
	}
	out := make([]pql.Predicate, n)
	for i := range out {
		out[i] = readPred(d, depth)
	}
	return out
}

// ReadQuery reads one query out of a request being decoded; the verdict is
// d's (Err, Finish). Every node of the query is made by strict, the parser's
// constructors refusing what they would rewrite, so the query it yields is
// one Parse could have produced, or the broker's hybrid rewrite of one. Any
// other tree fails the decode.
func ReadQuery(d *wire.Decoder) *pql.Query {
	q := &pql.Query{Table: d.Str()}
	if n := d.Count(minExprBytes); n > 0 {
		q.Select = make([]pql.Expression, n)
		for i := range q.Select {
			readExpression(d, &q.Select[i])
		}
	}
	q.Filter = readPred(d, 0)
	refuse(d, strict.Where(q.Filter))
	q.GroupBy = d.Strs()
	if n := d.Count(1); n > 0 {
		q.GroupByExprs = make([]pql.Expr, n)
		for i := range q.GroupByExprs {
			q.GroupByExprs[i] = readExpr(d, 0)
		}
	}
	if n := d.Count(2); n > 0 {
		q.OrderBy = make([]pql.OrderSpec, n)
		for i := range q.OrderBy {
			q.OrderBy[i] = pql.OrderSpec{Column: d.Str(), Descending: d.Bool()}
		}
	}
	q.Top, q.Offset, q.Limit = d.Int(), d.Int(), d.Int()
	if d.Err() == nil {
		if err := strict.Finish(q); err != nil {
			d.Fail("%w", err)
		}
	}
	if d.Err() != nil {
		return nil
	}
	return q
}

// readColumn reads the row count that opens a column and refuses one that is
// not the table's, or that the remaining bytes cannot hold at minBytes a row.
func readColumn(d *wire.Decoder, n, minBytes int) bool {
	if got := d.Count(minBytes); got != n && d.Err() == nil {
		d.Fail("column of %d rows in a table of %d groups", got, n)
	}
	return d.Err() == nil
}

func readVarints(d *wire.Decoder, n int) []int64 {
	if !readColumn(d, n, 1) {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.Varint()
	}
	return out
}

func readFloats(d *wire.Decoder, n int) []float64 {
	if !readColumn(d, n, 8) {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Float()
	}
	return out
}

// readSizes reads the n row lengths that end a column of strings or lists
// (appendLists), which must add up to total, and hands each to window.
func readSizes(d *wire.Decoder, n, total int, window func(row, size int)) {
	for i := 0; i < n; i++ {
		size := d.Uvarint()
		if size > uint64(total) {
			d.Fail("row lengths exceed the column's elements")
			return
		}
		total -= int(size)
		window(i, int(size))
	}
	if total != 0 {
		d.Fail("row lengths fall short of the column's elements")
	}
}

// readKeyColumn reverses appendKeyColumn for a column that must hold n
// values.
func readKeyColumn(d *wire.Decoder, k *keyColumn, n int) {
	switch k.kind = keyKind(d.Byte()); k.kind {
	case keyString:
		// One backing string for the column; each value is a window of it.
		if all := d.Str(); readColumn(d, n, 1) {
			k.strs = make([]string, n)
			readSizes(d, n, len(all), func(i, size int) { k.strs[i], all = all[:size], all[size:] })
		}
	case keyLong, keyBool, keyDouble:
		width := 1
		if k.kind == keyDouble {
			width = 8
		}
		if !readColumn(d, n, width) {
			break
		}
		k.nums = make([]uint64, n)
		for i := range k.nums {
			if k.kind == keyDouble {
				k.nums[i] = doubleBits(d.Float())
			} else if k.nums[i] = uint64(d.Varint()); k.kind == keyBool && k.nums[i] > 1 {
				d.Fail("bool key %d", k.nums[i])
			}
		}
	default:
		if k.kind != keyUnset || n > 0 {
			d.Fail("unknown key column kind %d", k.kind)
		}
	}
}

// readSelection reverses appendSelection for a selection of ncols columns.
func readSelection(d *wire.Decoder, ncols int) *Selection {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	// Every column is at least a byte a row: a value, or a row length.
	if ncols == 0 || ncols > d.Remaining()/n {
		d.Fail("%d rows of %d columns in the %d bytes that remain", n, ncols, d.Remaining())
		return nil
	}
	s := &Selection{cols: make([]keyColumn, ncols), n: n}
	for c := range s.cols {
		k := &s.cols[c]
		if !d.Bool() {
			readKeyColumn(d, k, n)
			continue
		}
		total := d.Count(1)
		readKeyColumn(d, k, total)
		if s.offs == nil {
			s.offs = make([][]int, ncols)
		}
		offs := make([]int, 1, n+1)
		readSizes(d, n, total, func(_, size int) { offs = append(offs, offs[len(offs)-1]+size) })
		s.offs[c] = offs
	}
	if d.Err() != nil {
		return nil
	}
	return s
}

// readGroupTable reverses appendGroupTable; the table's shape is the one
// r.GroupCols and r.AggExprs, already read, declare.
func readGroupTable(d *wire.Decoder, r *Intermediate) *GroupTable {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	// Every key column is a tag, a count and at least a byte per group; a
	// table of no key column is one row.
	if k := len(r.GroupCols); k > d.Remaining()/(n+2) || (k == 0 && n != 1) {
		d.Fail("%d groups of %d key columns in the %d bytes that remain", n, k, d.Remaining())
		return nil
	}
	t := &GroupTable{keys: make([]keyColumn, len(r.GroupCols)), aggs: make([]aggColumn, len(r.AggExprs)), n: n}
	for c := range t.keys {
		readKeyColumn(d, &t.keys[c], n)
	}
	for a := range t.aggs {
		c := &t.aggs[a]
		c.fn = r.AggExprs[a].Func
		c.has = carries(c.fn)
		if c.has&(fCount|fDistinct) != 0 {
			c.count = readVarints(d, n)
		}
		if c.has&fSum != 0 {
			c.sum = readFloats(d, n)
		}
		if c.has&(fMin|fMax) != 0 {
			c.extreme = readFloats(d, n)
			if readColumn(d, n, 1) {
				c.seen = make([]bool, n)
				for i := range c.seen {
					c.seen[i] = d.Bool()
				}
			}
		}
		if c.has&fValues != 0 {
			// One backing array for the column; each list is a window of it,
			// capped so that appending to one copies it out.
			all := make([]float64, d.Count(8))
			for i := range all {
				all[i] = d.Float()
			}
			if readColumn(d, n, 1) {
				c.values = make([][]float64, n)
				readSizes(d, n, len(all), func(i, size int) {
					if size > 0 {
						c.values[i], all = all[:size:size], all[size:]
					}
				})
			}
		}
		if c.has&fDistinct != 0 {
			// count holds each set's declared size until its members replace
			// it with the number of them that are distinct.
			total := int64(0)
			for _, size := range c.count {
				if total += size; size < 0 || total > int64(d.Remaining()) {
					d.Fail("set sizes exceed the %d bytes that remain", d.Remaining())
					break
				}
			}
			if d.Err() != nil {
				break
			}
			c.set = make(map[distinctEntry]struct{}, total)
			for i, size := range c.count {
				c.count[i] = 0
				for ; size > 0 && d.Err() == nil; size-- {
					c.addDistinct(uint32(i), d.Str())
				}
			}
		}
	}
	if d.Err() != nil {
		return nil
	}
	return t
}

// ReadIntermediate reads one intermediate out of a message being decoded;
// the verdict is d's (Err, Finish).
func ReadIntermediate(d *wire.Decoder) *Intermediate {
	r := &Intermediate{}
	kind := d.Byte()
	if kind > byte(KindSelection) {
		d.Fail("unknown result kind %d", kind)
	}
	r.Kind = ResultKind(kind)
	if n := d.Count(minExprBytes); n > 0 {
		r.AggExprs = make([]pql.Expression, n)
		for i := range r.AggExprs {
			readExpression(d, &r.AggExprs[i])
		}
	}
	r.GroupCols = d.Strs()

	r.Groups = readGroupTable(d, r)

	r.SelectCols = d.Strs()
	if r.HiddenCols = d.Int(); r.HiddenCols < 0 || r.HiddenCols > len(r.SelectCols) {
		d.Fail("%d hidden columns of %d", r.HiddenCols, len(r.SelectCols))
	}
	r.Selection = readSelection(d, len(r.SelectCols))
	ReadStats(d, &r.Stats)
	return r
}

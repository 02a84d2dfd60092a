package query

import (
	"math"
	"slices"

	"pinot/internal/pql"
	"pinot/internal/wire"
)

// The byte layout of an Intermediate: the one encoder and the one decoder of
// everything result.go and grouptable.go declare, written with the primitives of
// internal/wire. The data plane ships these bytes inside its frames
// (internal/transport/codec.go calls AppendIntermediate/ReadIntermediate and
// AppendStats/ReadStats) and both cache tiers keep them as their value
// (EncodeIntermediate/DecodeIntermediate). DESIGN.md ("Network transport") has
// the layout field by field; what is particular to this file:
//
//   - a zero count decodes to a nil slice, map or group table (which Merge,
//     Finalize and Conforms accept), except that an empty multi-value cell
//     stays []any{} so it keeps rendering as [] not null;
//   - an aggregation travels as the columns of its GroupTable: one per GROUP
//     BY item (none without GROUP BY, whose table is one row) and one per
//     carried state field, each a count and then its values, strings as one
//     run of bytes and their lengths. Decoding one costs a handful of
//     allocations per column, whatever the number of groups, and no key string
//     exists anywhere;
//   - selection rows decode into one slab sized from a declared total;
//   - nothing decoded aliases the input: a decoded Intermediate is private to
//     its caller, which may Merge into it and Finalize it.

// Tags of a dynamically typed cell (selection cells, literals): exactly the
// five concrete types the engine puts into an `any`. The first four are also
// the tags of a group table's key columns (keyKind).
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
	minCellBytes = 2 // tag + one payload byte
	minExprBytes = 4 // isAgg, func length, column length, arg tag
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
		k := &t.keys[c]
		e.Raw(byte(k.kind))
		switch k.kind {
		case keyString:
			appendLists(e, k.strs, func(s string) { e.Chars(s) })
		case keyLong, keyBool:
			e.Count(t.n)
			for _, v := range k.nums {
				e.Varint(int64(v))
			}
		case keyDouble:
			e.Count(t.n)
			for _, v := range k.nums {
				e.Float(math.Float64frombits(v))
			}
		default:
			e.Fail("group key column %d is %v", c, k.kind)
		}
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
		e.Bool(x.IsAgg)
		e.Str(string(x.Func))
		e.Str(x.Column)
		appendExpr(e, x.Arg, 0)
	}
	e.Strs(r.GroupCols)

	appendGroupTable(e, r)

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
		k := &t.keys[c]
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
			d.Fail("unknown group key kind %d", k.kind)
		}
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
			x := &r.AggExprs[i]
			x.IsAgg = d.Bool()
			x.Func = readAggFunc(d)
			x.Column = d.Str()
			x.Arg = readExpr(d, 0)
		}
	}
	r.GroupCols = d.Strs()

	r.Groups = readGroupTable(d, r)

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

package query

import (
	"fmt"
	"sort"

	"pinot/internal/pql"
	"pinot/internal/segment"
)

// Oracle answers queries the slow, obvious way: it is the reference the
// differential harness holds every plan rung to, and its filter the
// per-document reference the scan cursor is driven against. Per segment it
// visits every document in order, reads values through the per-document
// ColumnReader accessors (schema-evolution defaults through columnSource),
// tests the filter on them — multi-value columns by contains-any, NOT on
// documents, expressions through the row reference (rowref_test.go) — and
// folds each match into a GroupTable by upsert and accumulateRow, or keeps
// it as a boxed selection row. An aggregation's Merge and Finalize are the
// engine's; a selection's rows are sorted and cut by selectRows, not by
// Finalize. buildFilter, docids.go, the scan cursor, vexec.go's kernels and
// groupers and the Selection columns are never used.
type Oracle struct {
	segs   []IndexedSegment
	schema *segment.Schema
	memo   map[oracleKey][]any // a column's values by document, read once
	err    error               // the first evaluation that failed
}

type oracleKey struct {
	seg  segment.Reader
	name string
}

// NewOracle returns the oracle of a table: its segments and its schema (nil:
// each segment's own).
func NewOracle(segs []IndexedSegment, schema *segment.Schema) *Oracle {
	return &Oracle{segs: segs, schema: schema, memo: map[oracleKey][]any{}}
}

// Answer returns the rows the engine must return for pqlText, and the
// NumDocsScanned, NumSegmentsMatched and TotalDocs it must report whenever it
// answers without a star-tree or a metadata plan.
func (o *Oracle) Answer(pqlText string) (*Result, error) {
	q, err := pql.Parse(pqlText)
	if err != nil {
		return nil, err
	}
	merged := EmptyIntermediate(q, o.schema)
	var rows [][]any
	for i, is := range o.segs {
		res, segRows, err := o.segment(q, is.Seg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, segRows...)
		if i == 0 {
			merged = res
		} else if err := merged.Merge(res); err != nil {
			return nil, err
		}
	}
	res := merged.Finalize(q)
	if merged.Kind == KindSelection {
		res.Rows = selectRows(q, merged.SelectCols, merged.HiddenCols, rows)
	}
	return res, nil
}

// selectRows finalizes a selection's boxed rows: sorted stably by ORDER BY,
// segment.CompareValues comparing each key, then cut by OFFSET and LIMIT,
// then the hidden columns dropped.
func selectRows(q *pql.Query, cols []string, hidden int, rows [][]any) [][]any {
	if len(q.OrderBy) > 0 {
		var idx []int
		var desc []bool
		for _, o := range q.OrderBy {
			for i, c := range cols {
				if c == o.Column {
					idx = append(idx, i)
					desc = append(desc, o.Descending)
					break
				}
			}
		}
		sort.SliceStable(rows, func(a, b int) bool {
			for k, i := range idx {
				c := segment.CompareValues(rows[a][i], rows[b][i])
				if c == 0 {
					continue
				}
				if desc[k] {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	if q.Offset >= len(rows) {
		return nil
	}
	rows = rows[q.Offset:]
	if len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	out := make([][]any, len(rows))
	for i, row := range rows {
		out[i] = row[:len(cols)-hidden]
	}
	return out
}

func (o *Oracle) segment(q *pql.Query, seg segment.Reader) (*Intermediate, [][]any, error) {
	match, err := o.filter(seg, q.Filter)
	out := &Intermediate{Kind: KindSelection, Stats: baseStats(seg)}
	var keys, reads []func(doc int) any // group keys; aggregate inputs or selected columns
	read := func(to *[]func(int) any, name string, e pql.Expr) {
		if err == nil {
			var r func(int) any
			r, err = o.reader(seg, name, e)
			*to = append(*to, r)
		}
	}
	if q.IsAggregation() {
		out.Kind, out.GroupCols = KindGroupBy, q.GroupBy
		for i, name := range q.GroupBy {
			var e pql.Expr
			if i < len(q.GroupByExprs) {
				e = q.GroupByExprs[i]
			}
			read(&keys, name, e)
		}
		for _, e := range q.Select {
			if e.IsAgg {
				out.AggExprs = append(out.AggExprs, e)
				read(&reads, e.Column, e.Arg)
			}
		}
		out.Groups = NewGroupTable(len(keys), out.AggExprs)
	} else {
		schema := o.schema
		if schema == nil {
			schema = seg.Schema()
		}
		out.SelectCols, out.HiddenCols = selectionColumns(q, schema)
		for _, name := range out.SelectCols {
			read(&reads, name, nil)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	// Without ORDER BY a segment keeps its first offset+limit rows; with it,
	// every row, and selectRows sorts stably, so ties keep document order.
	keep, needAll, t := q.Offset+q.Limit, len(q.OrderBy) > 0, out.Groups
	var rows [][]any
	values := make([]any, len(keys))
	for doc := 0; doc < seg.NumDocs(); doc++ {
		if !match(doc) {
			continue
		}
		out.Stats.NumDocsScanned++
		out.Stats.NumSegmentsMatched = 1
		if t == nil {
			row := make([]any, len(reads))
			for i, read := range reads {
				row[i] = read(doc)
			}
			if rows = append(rows, row); !needAll && len(rows) >= keep {
				break
			}
			continue
		}
		var ord uint32
		if len(keys) > 0 {
			for i, key := range keys {
				values[i] = key(doc)
			}
			if ord, err = t.upsert(values); err != nil {
				return nil, nil, err
			}
		}
		for i, read := range reads {
			accumulateRow(&t.aggs[i], ord, read(doc))
		}
	}
	return out, rows, o.err
}

// column returns a column of seg: its spec and every document's value, a
// multi-value document's as a []any.
func (o *Oracle) column(seg segment.Reader, name string) (segment.FieldSpec, []any, error) {
	col, err := columnSource{seg: seg, schema: o.schema}.column(name)
	if err != nil {
		return segment.FieldSpec{}, nil, err
	}
	key := oracleKey{seg, name}
	if vals, ok := o.memo[key]; ok {
		return col.Spec(), vals, nil
	}
	vals := make([]any, seg.NumDocs())
	for doc := range vals {
		if col.Spec().SingleValue {
			vals[doc] = readScalarValue(col, doc)
			continue
		}
		ids := col.DictIDsMV(doc, nil)
		mv := make([]any, len(ids))
		for j, id := range ids {
			mv[j] = col.Value(id)
		}
		vals[doc] = mv
	}
	o.memo[key] = vals
	return col.Spec(), vals, nil
}

// reader returns the per-document value of an expression, of the named
// column when e is nil, or nothing for COUNT(*)'s column "*".
func (o *Oracle) reader(seg segment.Reader, name string, e pql.Expr) (func(doc int) any, error) {
	if e == nil {
		if name == "*" {
			return func(int) any { return nil }, nil
		}
		_, vals, err := o.column(seg, name)
		return func(doc int) any { return vals[doc] }, err
	}
	cols := map[string][]any{}
	for _, name := range pql.ExprColumns(e) {
		_, vals, err := o.column(seg, name)
		if err != nil {
			return nil, err
		}
		cols[name] = vals
	}
	doc := 0
	get := func(name string) any { return cols[name][doc] }
	return func(d int) any {
		doc = d
		v, err := refEval(e, get)
		if err != nil && o.err == nil {
			o.err = fmt.Errorf("oracle: %s: %w", e, err)
		}
		return v
	}, nil
}

// filter compiles a predicate into a test of one document's values.
func (o *Oracle) filter(seg segment.Reader, pred pql.Predicate) (func(doc int) bool, error) {
	switch p := pred.(type) {
	case nil:
		return func(int) bool { return true }, nil
	case pql.And:
		return o.junction(seg, p.Children, true)
	case pql.Or:
		return o.junction(seg, p.Children, false)
	case pql.Not:
		child, err := o.filter(seg, p.Child)
		return func(doc int) bool { return !child(doc) }, err
	case pql.ExprCompare:
		lhs, err := o.reader(seg, "", p.LHS)
		if err != nil {
			return nil, err
		}
		rhs, err := o.reader(seg, "", p.RHS)
		return func(doc int) bool {
			lv, rv := lhs(doc), rhs(doc)
			if lv == nil || rv == nil {
				return false
			}
			ok, err := refCompare(p.Op, lv, rv)
			if err != nil && o.err == nil {
				o.err = err
			}
			return ok
		}, err
	}
	names := pql.PredicateColumns(pred)
	if len(names) != 1 {
		return nil, fmt.Errorf("oracle: leaf predicate must reference one column, got %v", names)
	}
	spec, vals, err := o.column(seg, names[0])
	if err != nil {
		return nil, err
	}
	pos, negated := pred, false
	if !spec.SingleValue {
		pos, negated = positiveForm(pred) // contains-any: complement the positive form
	}
	m, err := valueMatcher(spec.Type, pos)
	if spec.SingleValue {
		return func(doc int) bool { return m(vals[doc]) }, err
	}
	return func(doc int) bool {
		for _, v := range vals[doc].([]any) {
			if m(v) {
				return !negated
			}
		}
		return negated
	}, err
}

func (o *Oracle) junction(seg segment.Reader, children []pql.Predicate, isAnd bool) (func(doc int) bool, error) {
	tests := make([]func(int) bool, len(children))
	for i, c := range children {
		var err error
		if tests[i], err = o.filter(seg, c); err != nil {
			return nil, err
		}
	}
	return func(doc int) bool {
		for _, test := range tests {
			if test(doc) != isAnd {
				return !isAnd
			}
		}
		return isAnd
	}, nil
}

// accumulateRow folds one document's input value into group ord's row of an
// aggregate's column: COUNT counts it, DISTINCTCOUNT keeps it rendered as a
// key, every other function takes it as a number.
func accumulateRow(c *aggColumn, ord uint32, v any) {
	switch c.fn {
	case pql.Count:
		c.count[ord]++
	case pql.DistinctCount:
		c.addDistinct(ord, fmt.Sprint(v))
	default:
		f, _ := v.(float64)
		if n, ok := v.(int64); ok {
			f = float64(n)
		}
		s := c.at(int(ord))
		s.AddNumeric(f)
		c.put(int(ord), &s)
	}
}

// AddNumeric accumulates one numeric observation.
func (s *AggState) AddNumeric(v float64) {
	s.Count++
	s.Sum += v
	if _, ok := pql.PercentileQuantile(s.Func); ok {
		s.Values = append(s.Values, v)
	}
	if v < s.Min {
		s.Min = v
	}
	if v > s.Max {
		s.Max = v
	}
	s.Seen = true
}

// valueMatcher builds a test of one canonical value against a leaf
// predicate, segment.CompareValues deciding every comparison.
func valueMatcher(typ segment.DataType, pred pql.Predicate) (func(any) bool, error) {
	coerce := func(v any) (any, error) { return segment.Canonicalize(typ, v) }
	switch p := pred.(type) {
	case pql.Comparison:
		v, err := coerce(p.Value)
		op := p.Op
		return func(x any) bool {
			c := segment.CompareValues(x, v)
			return op == pql.OpEq && c == 0 || op == pql.OpNeq && c != 0 || op == pql.OpLt && c < 0 ||
				op == pql.OpLte && c <= 0 || op == pql.OpGt && c > 0 || op == pql.OpGte && c >= 0
		}, err
	case pql.Between:
		lo, err := coerce(p.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := coerce(p.Hi)
		return func(x any) bool {
			return segment.CompareValues(x, lo) >= 0 && segment.CompareValues(x, hi) <= 0
		}, err
	case pql.In:
		set := make(map[any]bool, len(p.Values))
		for _, raw := range p.Values {
			v, err := coerce(raw)
			if err != nil {
				return nil, err
			}
			set[v] = true
		}
		return func(x any) bool { return set[x] != p.Negated }, nil
	}
	return nil, fmt.Errorf("query: unsupported predicate %T", pred)
}

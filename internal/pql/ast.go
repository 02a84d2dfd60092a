// Package pql implements PQL, Pinot's SQL subset: selection, projection,
// aggregation, group-by and top-n queries over a single table, without joins
// or nested queries (paper section 3.1).
package pql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// AggFunc identifies an aggregation function.
type AggFunc string

// Supported aggregation functions.
const (
	Count         AggFunc = "COUNT"
	Sum           AggFunc = "SUM"
	Min           AggFunc = "MIN"
	Max           AggFunc = "MAX"
	Avg           AggFunc = "AVG"
	DistinctCount AggFunc = "DISTINCTCOUNT"
)

// Percentile aggregations are written PERCENTILE<q>, e.g. PERCENTILE95.
// They require the original unaggregated data — exactly the class of
// queries the paper notes pre-aggregation cannot answer (section 2).
const percentilePrefix = "PERCENTILE"

// ParseAggFunc recognizes an aggregation function name (case-insensitive).
func ParseAggFunc(s string) (AggFunc, bool) {
	u := strings.ToUpper(s)
	switch AggFunc(u) {
	case Count, Sum, Min, Max, Avg, DistinctCount:
		return AggFunc(u), true
	}
	if q, ok := PercentileQuantile(AggFunc(u)); ok && q > 0 && q < 100 {
		return AggFunc(u), true
	}
	return "", false
}

// PercentileQuantile extracts the quantile of a PERCENTILE<q> function,
// reporting whether fn is a percentile aggregation.
func PercentileQuantile(fn AggFunc) (int, bool) {
	s := string(fn)
	if !strings.HasPrefix(s, percentilePrefix) || len(s) == len(percentilePrefix) {
		return 0, false
	}
	q := 0
	for _, c := range s[len(percentilePrefix):] {
		if c < '0' || c > '9' {
			return 0, false
		}
		q = q*10 + int(c-'0')
		if q > 100 {
			return 0, false
		}
	}
	return q, true
}

// Expression is one item of a select list: either a plain column projection
// or an aggregation over a scalar expression ("*" only for COUNT). Column
// always holds the rendered argument text — the result column name and merge
// key — while Arg carries the expression tree when the argument is more than
// a bare column (nil otherwise, so column-bound paths see the shape they
// always did).
type Expression struct {
	IsAgg  bool
	Func   AggFunc
	Column string
	Arg    Expr
}

func (e Expression) String() string {
	var sb strings.Builder
	e.write(&sb)
	return sb.String()
}

func (e Expression) write(sb *strings.Builder) {
	if !e.IsAgg {
		sb.WriteString(e.Column)
		return
	}
	sb.WriteString(strings.ToLower(string(e.Func)))
	sb.WriteByte('(')
	sb.WriteString(e.Column)
	sb.WriteByte(')')
}

// CompareOp is a comparison operator in a predicate.
type CompareOp string

// Supported comparison operators.
const (
	OpEq  CompareOp = "="
	OpNeq CompareOp = "<>"
	OpLt  CompareOp = "<"
	OpLte CompareOp = "<="
	OpGt  CompareOp = ">"
	OpGte CompareOp = ">="
)

// Predicate is a filter tree node.
type Predicate interface {
	fmt.Stringer
	isPredicate()
}

// Comparison is `column op literal`.
type Comparison struct {
	Column string
	Op     CompareOp
	Value  any // int64, float64, string or bool
}

func (Comparison) isPredicate() {}

func (p Comparison) String() string { return render(p) }

// In is `column [NOT] IN (v1, v2, ...)`.
type In struct {
	Column  string
	Values  []any
	Negated bool
}

func (In) isPredicate() {}

func (p In) String() string { return render(p) }

// Between is `column BETWEEN lo AND hi` (inclusive both sides).
type Between struct {
	Column string
	Lo     any
	Hi     any
}

func (Between) isPredicate() {}

func (p Between) String() string { return render(p) }

// And is the conjunction of its children.
type And struct {
	Children []Predicate
}

func (And) isPredicate() {}

func (p And) String() string { return render(p) }

// Or is the disjunction of its children.
type Or struct {
	Children []Predicate
}

func (Or) isPredicate() {}

func (p Or) String() string { return render(p) }

// Not negates its child.
type Not struct {
	Child Predicate
}

func (Not) isPredicate() {}

func (p Not) String() string { return render(p) }

// OrderSpec is one ORDER BY term for selection queries.
type OrderSpec struct {
	Column     string
	Descending bool
}

func (o OrderSpec) String() string {
	if o.Descending {
		return o.Column + " DESC"
	}
	return o.Column + " ASC"
}

// Default result-size limits, matching Pinot's PQL defaults.
const (
	DefaultTop   = 10
	DefaultLimit = 10
)

// Query is a parsed PQL statement.
type Query struct {
	Table   string
	Select  []Expression
	Filter  Predicate // nil when there is no WHERE clause
	GroupBy []string
	// GroupByExprs carries expression trees for GROUP BY items that are
	// more than bare columns, aligned with GroupBy (nil entries for plain
	// columns). It is nil when every item is a plain column — GroupBy's
	// rendered strings remain the group column names and merge keys either
	// way.
	GroupByExprs []Expr
	OrderBy      []OrderSpec
	Top          int // group-by result groups
	Offset       int // selection offset
	Limit        int // selection row limit
}

// HasExprGroupBy reports whether any GROUP BY item is a derived expression.
func (q *Query) HasExprGroupBy() bool {
	return slices.ContainsFunc(q.GroupByExprs, func(e Expr) bool { return e != nil })
}

// IsAggregation reports whether the query computes aggregates.
func (q *Query) IsAggregation() bool {
	return slices.ContainsFunc(q.Select, func(e Expression) bool { return e.IsAgg })
}

// HasGroupBy reports whether the query groups results.
func (q *Query) HasGroupBy() bool { return len(q.GroupBy) > 0 }

// String renders the query back to PQL text, into one buffer, sized up
// front for the parts the query holds as text; the filter's text grows it.
func (q *Query) String() string {
	n := len("SELECT  FROM ") + len(q.Table) + 2*len(q.Select)
	for _, e := range q.Select {
		n += len(e.Func) + len(e.Column)
	}
	for _, g := range q.GroupBy {
		n += len(g) + len(", ")
	}
	for _, o := range q.OrderBy {
		n += len(o.Column) + len(" DESC, ")
	}
	var sb strings.Builder
	sb.Grow(n)
	sb.WriteString("SELECT ")
	for i, e := range q.Select {
		if i > 0 {
			sb.WriteString(", ")
		}
		e.write(&sb)
	}
	sb.WriteString(" FROM ")
	sb.WriteString(q.Table)
	if q.Filter != nil {
		sb.WriteString(" WHERE ")
		writeNode(&sb, q.Filter)
	}
	for i, g := range q.GroupBy {
		clause(&sb, i, " GROUP BY ")
		sb.WriteString(g)
	}
	for i, o := range q.OrderBy {
		clause(&sb, i, " ORDER BY ")
		sb.WriteString(o.String())
	}
	var num [20]byte
	if q.HasGroupBy() && q.Top != DefaultTop {
		sb.WriteString(" TOP ")
		sb.Write(strconv.AppendInt(num[:0], int64(q.Top), 10))
	}
	if !q.IsAggregation() && (q.Limit != DefaultLimit || q.Offset != 0) {
		sb.WriteString(" LIMIT ")
		if q.Offset != 0 {
			sb.Write(strconv.AppendInt(num[:0], int64(q.Offset), 10))
			sb.WriteString(", ")
		}
		sb.Write(strconv.AppendInt(num[:0], int64(q.Limit), 10))
	}
	return sb.String()
}

// clause writes what comes before a clause's i-th term: the clause's
// keyword, or a comma.
func clause(sb *strings.Builder, i int, keyword string) {
	if i == 0 {
		sb.WriteString(keyword)
	} else {
		sb.WriteString(", ")
	}
}

// WithExtraFilter returns a copy of the query with pred ANDed onto the
// existing filter. It is the broker's hybrid-table rewriting primitive
// (paper Figure 6).
func (q *Query) WithExtraFilter(pred Predicate) *Query {
	out := *q
	out.Filter = pred
	if q.Filter != nil {
		out.Filter = And{Children: []Predicate{q.Filter, pred}}
	}
	return &out
}

// PredicateColumns returns the distinct column names referenced by a
// predicate tree, in first-seen order.
func PredicateColumns(p Predicate) []string { return addColumns(nil, p) }

// PredicateHasExprCompare reports whether a filter tree contains at least
// one expression-comparison leaf; planners use it to skip dictionary-space
// setup for the common plain-predicate query.
func PredicateHasExprCompare(p Predicate) bool {
	_, found := p.(ExprCompare)
	each(p, func(c any) {
		if child, ok := c.(Predicate); ok {
			found = found || PredicateHasExprCompare(child)
		}
	})
	return found
}

// addColumns appends to out the columns a predicate or expression names that
// out lacks, in the order it names them. A tree names a column or two, so a
// linear scan of out dedupes them; a map would cost the caller a large stack
// frame on every call.
func addColumns(out []string, n any) []string {
	col, named := "", true
	switch n := n.(type) {
	case ColumnRef:
		col = n.Name
	case Comparison:
		col = n.Column
	case In:
		col = n.Column
	case Between:
		col = n.Column
	default:
		named = false
	}
	if named && !slices.Contains(out, col) {
		out = append(out, col)
	}
	each(n, func(c any) { out = addColumns(out, c) })
	return out
}

// each calls f on each child of a predicate or expression node, in order.
func each(n any, f func(any)) {
	switch n := n.(type) {
	case And:
		for _, c := range n.Children {
			f(c)
		}
	case Or:
		for _, c := range n.Children {
			f(c)
		}
	case Not:
		f(n.Child)
	case ExprCompare:
		f(n.LHS)
		f(n.RHS)
	case Arith:
		f(n.L)
		f(n.R)
	case Call:
		for _, a := range n.Args {
			f(a)
		}
	}
}

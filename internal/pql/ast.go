// Package pql implements PQL, Pinot's SQL subset: selection, projection,
// aggregation, group-by and top-n queries over a single table, without joins
// or nested queries (paper section 3.1).
package pql

import (
	"bytes"
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
	if !e.IsAgg {
		return e.Column
	}
	return fmt.Sprintf("%s(%s)", strings.ToLower(string(e.Func)), e.Column)
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

func (p Comparison) String() string {
	return fmt.Sprintf("%s %s %s", formatColumn(p.Column), p.Op, formatLiteral(p.Value))
}

// In is `column [NOT] IN (v1, v2, ...)`.
type In struct {
	Column  string
	Values  []any
	Negated bool
}

func (In) isPredicate() {}

func (p In) String() string {
	vals := make([]string, len(p.Values))
	for i, v := range p.Values {
		vals[i] = formatLiteral(v)
	}
	op := "IN"
	if p.Negated {
		op = "NOT IN"
	}
	return fmt.Sprintf("%s %s (%s)", formatColumn(p.Column), op, strings.Join(vals, ", "))
}

// Between is `column BETWEEN lo AND hi` (inclusive both sides).
type Between struct {
	Column string
	Lo     any
	Hi     any
}

func (Between) isPredicate() {}

func (p Between) String() string {
	return fmt.Sprintf("%s BETWEEN %s AND %s", formatColumn(p.Column), formatLiteral(p.Lo), formatLiteral(p.Hi))
}

// And is the conjunction of its children.
type And struct {
	Children []Predicate
}

func (And) isPredicate() {}

func (p And) String() string {
	parts := make([]string, len(p.Children))
	for i, c := range p.Children {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, " AND ") + ")"
}

// Or is the disjunction of its children.
type Or struct {
	Children []Predicate
}

func (Or) isPredicate() {}

func (p Or) String() string {
	parts := make([]string, len(p.Children))
	for i, c := range p.Children {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, " OR ") + ")"
}

// Not negates its child.
type Not struct {
	Child Predicate
}

func (Not) isPredicate() {}

func (p Not) String() string { return "NOT " + p.Child.String() }

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
	for _, e := range q.GroupByExprs {
		if e != nil {
			return true
		}
	}
	return false
}

// IsAggregation reports whether the query computes aggregates.
func (q *Query) IsAggregation() bool {
	for _, e := range q.Select {
		if e.IsAgg {
			return true
		}
	}
	return false
}

// HasGroupBy reports whether the query groups results.
func (q *Query) HasGroupBy() bool { return len(q.GroupBy) > 0 }

// String renders the query back to PQL text.
func (q *Query) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	sel := make([]string, len(q.Select))
	for i, e := range q.Select {
		sel[i] = e.String()
	}
	sb.WriteString(strings.Join(sel, ", "))
	sb.WriteString(" FROM ")
	sb.WriteString(q.Table)
	if q.Filter != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(q.Filter.String())
	}
	if len(q.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		sb.WriteString(strings.Join(q.GroupBy, ", "))
	}
	if len(q.OrderBy) > 0 {
		terms := make([]string, len(q.OrderBy))
		for i, o := range q.OrderBy {
			terms[i] = o.String()
		}
		sb.WriteString(" ORDER BY ")
		sb.WriteString(strings.Join(terms, ", "))
	}
	if q.HasGroupBy() && q.Top != DefaultTop {
		fmt.Fprintf(&sb, " TOP %d", q.Top)
	}
	if !q.IsAggregation() && (q.Limit != DefaultLimit || q.Offset != 0) {
		if q.Offset != 0 {
			fmt.Fprintf(&sb, " LIMIT %d, %d", q.Offset, q.Limit)
		} else {
			fmt.Fprintf(&sb, " LIMIT %d", q.Limit)
		}
	}
	return sb.String()
}

// WithExtraFilter returns a copy of the query with pred ANDed onto the
// existing filter. It is the broker's hybrid-table rewriting primitive
// (paper Figure 6).
func (q *Query) WithExtraFilter(pred Predicate) *Query {
	out := *q
	switch {
	case q.Filter == nil:
		out.Filter = pred
	default:
		out.Filter = And{Children: []Predicate{q.Filter, pred}}
	}
	return &out
}

// formatColumn renders a column name at predicate position. Names that are
// not plain identifiers (e.g. a quoted column like '0-3', paper Figure 7's
// 'day') must re-render quoted, or the text would re-parse as an expression;
// so must a keyword or a boolean literal's spelling ('not' = 1 would re-parse
// as a negation, 'true' = 1 as a constant comparison).
func formatColumn(name string) string {
	if isIdentifier(name) && !reserved(name) {
		return name
	}
	return formatLiteral(name)
}

// reserved reports whether an identifier is a keyword or a boolean literal,
// folding its case on the stack: String runs on the broker's every query.
func reserved(name string) bool {
	var buf [len("between")]byte
	if len(name) > len(buf) {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	l := buf[:len(name)]
	return pqlKeywords[string(l)] || string(l) == "true" || string(l) == "false"
}

func isIdentifier(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'):
		case i > 0 && c >= '0' && c <= '9':
		default:
			return false
		}
	}
	return true
}

func formatLiteral(v any) string {
	var sb strings.Builder
	writeLiteral(&sb, v)
	return sb.String()
}

// writeLiteral renders a constant as PQL text, straight into sb.
func writeLiteral(sb *strings.Builder, v any) {
	switch x := v.(type) {
	case string:
		sb.Grow(len(x) + 2)
		sb.WriteByte('\'')
		for i := strings.IndexByte(x, '\''); i >= 0; i = strings.IndexByte(x, '\'') {
			sb.WriteString(x[:i+1])
			sb.WriteByte('\'')
			x = x[i+1:]
		}
		sb.WriteString(x)
		sb.WriteByte('\'')
	case bool:
		sb.WriteString(strconv.FormatBool(x))
	case int64:
		var buf [20]byte
		sb.Write(strconv.AppendInt(buf[:0], x, 10))
	case float64:
		// A double that happens to be integral must still render as a
		// double (2.5*2 → "5.0", not "5"): the canonical text re-parses,
		// and an int literal would change the expression's static type.
		var buf [32]byte
		b := strconv.AppendFloat(buf[:0], x, 'g', -1, 64)
		if !bytes.ContainsAny(b, ".eE") {
			b = append(b, ".0"...)
		}
		sb.Write(b)
	default:
		fmt.Fprint(sb, v)
	}
}

// PredicateColumns returns the distinct column names referenced by a
// predicate tree, in first-seen order. A predicate names a column or two,
// so a linear scan of the output dedupes them; a map would cost the caller
// a large stack frame on every call.
func PredicateColumns(p Predicate) []string {
	var out []string
	add := func(c string) {
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	var walk func(Predicate)
	walk = func(p Predicate) {
		switch n := p.(type) {
		case Comparison:
			add(n.Column)
		case In:
			add(n.Column)
		case Between:
			add(n.Column)
		case ExprCompare:
			for _, c := range ExprColumns(n.LHS) {
				add(c)
			}
			for _, c := range ExprColumns(n.RHS) {
				add(c)
			}
		case And:
			for _, c := range n.Children {
				walk(c)
			}
		case Or:
			for _, c := range n.Children {
				walk(c)
			}
		case Not:
			walk(n.Child)
		}
	}
	if p != nil {
		walk(p)
	}
	return out
}

package pql

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// A query tree is built here, node by node, under the rules that make its
// text parse back to it. The parser builds every node through a Builder, and
// so does the data plane's decoder (internal/query/wire.go), so a server runs
// exactly a tree the broker's parser could have built. A rule the parser
// applies by rewriting — fold an all-constant subtree, order the operands of
// + and *, collapse `column op constant` into a Comparison, keep a bare-column
// argument as a name with no tree, default a TOP or LIMIT the query ignores —
// makes a Strict Builder refuse the node instead: the broker sends only
// parsed trees. Each check costs O(1) a node, apart from ordering operands,
// which reads their texts up to their first difference (compareText).

// Builder makes the nodes of a query tree. The zero value rewrites a node
// into the form the rules ask for, as the parser needs; a Strict one refuses
// such a node.
type Builder struct {
	Strict bool
}

var (
	errMissing = errors.New("missing operand")
	errDeep    = fmt.Errorf("query nests deeper than %d levels", MaxDepth)
)

// Column makes a column reference inside an expression, where it renders
// bare: an identifier that is not a boolean literal. (The column a
// comparison leads with may be any name.)
func (Builder) Column(name string) (Expr, error) {
	if !isColumnName(name) {
		return nil, fmt.Errorf("column reference %q is not an identifier", name)
	}
	return ColumnRef{Name: name}, nil
}

// Lit makes a constant.
func (Builder) Lit(v any) (Expr, error) {
	return Literal{Value: v}, checkLiteral(v)
}

// Arith makes `l op r`. Two constants fold into the one they compute, by the
// builtin table's own body, so folding never changes a result; the operands
// of + and * are ordered by their text, so `a + b` and `b + a` are one tree
// and one cache entry. Chains are not re-associated: IEEE addition and
// multiplication commute but do not associate.
func (b Builder) Arith(op ArithOp, l, r Expr) (Expr, error) {
	f := ArithFunc(op)
	switch {
	case f == nil:
		return nil, fmt.Errorf("unknown arithmetic operator %q", op)
	case l == nil || r == nil:
		return nil, errMissing
	}
	if v, ok := f.fold([]Expr{l, r}); ok {
		if b.Strict {
			return nil, fmt.Errorf("(%v %s %v) is not folded", l, op, r)
		}
		return Literal{Value: v}, nil
	}
	if (op == OpAdd || op == OpMul) && compareText(r, l) < 0 {
		if b.Strict {
			return nil, fmt.Errorf("the operands of (%v %s %v) are out of order", l, op, r)
		}
		l, r = r, l
	}
	return Arith{Op: op, L: l, R: r}, nil
}

// Call makes a call of a builtin, whose name resolves without regard to case
// and which the call carries in the builtin's own spelling. A call over
// constants folds into the constant it computes.
func (b Builder) Call(name string, args []Expr) (Expr, error) {
	f, ok := Builtin(name)
	switch {
	case !ok:
		return nil, fmt.Errorf("unknown function %q", name)
	case f.Name != name && b.Strict:
		return nil, fmt.Errorf("builtin %s spelled %s", f.Name, name)
	case len(args) < f.MinArgs || len(args) > f.MaxArgs:
		if f.MinArgs == f.MaxArgs {
			return nil, fmt.Errorf("%s() takes %d argument(s), got %d", f.Name, f.MinArgs, len(args))
		}
		return nil, fmt.Errorf("%s() takes %d to %d arguments, got %d", f.Name, f.MinArgs, f.MaxArgs, len(args))
	case slices.Contains(args, nil):
		return nil, errMissing
	}
	if v, ok := f.fold(args); ok {
		if b.Strict {
			return nil, fmt.Errorf("%s() of constants is not folded", f.Name)
		}
		return Literal{Value: v}, nil
	}
	return Call{Name: f.Name, Args: args}, nil
}

// Comparison makes `column op value`, the predicate index and pruning plans
// key on. The column may be any name: it renders quoted where it must.
func (Builder) Comparison(col string, op CompareOp, v any) (Predicate, error) {
	return Comparison{Column: col, Op: op, Value: v}, errors.Join(checkCompareOp(op), checkLiteral(v))
}

// CompareColumn makes `col op rhs`: a Comparison when rhs is a constant.
// The column may be any name, as a Comparison's may.
func (b Builder) CompareColumn(col string, op CompareOp, rhs Expr) (Predicate, error) {
	lit, ok := rhs.(Literal)
	switch {
	case ok && b.Strict:
		return nil, fmt.Errorf("%s %s %v compares a column with a constant", col, op, lit)
	case ok:
		return b.Comparison(col, op, lit.Value)
	}
	return b.Compare(ColumnRef{Name: col}, op, rhs)
}

// Compare makes `lhs op rhs` over expressions whose left side is not a bare
// column (CompareColumn makes those).
func (Builder) Compare(lhs Expr, op CompareOp, rhs Expr) (Predicate, error) {
	if lhs == nil || rhs == nil {
		return nil, errMissing
	}
	return ExprCompare{LHS: lhs, Op: op, RHS: rhs}, checkCompareOp(op)
}

// In makes `column [NOT] IN (values)`, of one value at least.
func (Builder) In(col string, vals []any, negated bool) (Predicate, error) {
	if len(vals) == 0 {
		return nil, errors.New("IN with no values")
	}
	for _, v := range vals {
		if err := checkLiteral(v); err != nil {
			return nil, err
		}
	}
	return In{Column: col, Values: vals, Negated: negated}, nil
}

// Between makes `column BETWEEN lo AND hi`.
func (Builder) Between(col string, lo, hi any) (Predicate, error) {
	return Between{Column: col, Lo: lo, Hi: hi}, errors.Join(checkLiteral(lo), checkLiteral(hi))
}

// Junction makes the disjunction (OR) or the conjunction (AND) of children.
// A single child stands for itself, which a Strict Builder refuses.
func (b Builder) Junction(or bool, children []Predicate) (Predicate, error) {
	switch {
	case len(children) == 0 || len(children) == 1 && b.Strict:
		return nil, fmt.Errorf("AND or OR of %d children", len(children))
	case slices.Contains(children, nil):
		return nil, errMissing
	case len(children) == 1:
		return children[0], nil
	case or:
		return Or{Children: children}, nil
	}
	return And{Children: children}, nil
}

// Not makes the negation of child.
func (Builder) Not(child Predicate) (Predicate, error) {
	if child == nil {
		return nil, errMissing
	}
	return Not{Child: child}, nil
}

// Item makes a select item: the column col, or "*", when fn is empty, and
// otherwise the aggregation fn over "*", a column, or arg, an expression
// whose text names the item (col).
func (b Builder) Item(fn AggFunc, col string, arg Expr) (Expression, error) {
	x := Expression{IsAgg: fn != "", Func: fn, Column: col}
	_, column := arg.(ColumnRef)
	switch {
	case x.IsAgg && !isAggFunc(fn):
		return x, fmt.Errorf("unknown aggregation %q", fn)
	case col == "*" && arg == nil:
		return x, nil
	case !x.IsAgg && arg != nil && !column:
		return x, errors.New("expressions in the select list must be aggregation arguments")
	}
	var err error
	x.Column, x.Arg, err = b.Key(fn, col, arg)
	return x, err
}

// Key makes the argument of the aggregation fn or, fn empty, a GROUP BY item,
// from its name and its expression. A bare column is its name alone, with no
// tree; any other expression of a column is its tree, no deeper than
// MaxDepth, and the tree's text is its name.
func (b Builder) Key(fn AggFunc, name string, e Expr) (string, Expr, error) {
	switch n := e.(type) {
	case nil:
		if !isColumnName(name) {
			return "", nil, fmt.Errorf("%q is not a column", name)
		}
		return name, nil, nil
	case ColumnRef:
		if b.Strict {
			return "", nil, fmt.Errorf("column %s is kept as a tree", n.Name)
		}
		return n.Name, nil, nil
	case Literal:
		if fn == "" {
			return "", nil, errors.New("GROUP BY expression must reference a column")
		}
		return "", nil, fmt.Errorf("%s() argument must reference a column", fn)
	}
	if depth(e) > MaxDepth {
		return "", nil, errDeep
	}
	if text := render(e); !b.Strict || text == name {
		return text, e, nil
	}
	return "", nil, fmt.Errorf("%q is not the text of %v", name, e)
}

// Where checks a WHERE tree's depth: at most MaxDepth predicate and
// expression nodes on any path from its root. A Strict Builder, the decoder
// of the broker's requests, also takes the broker's hybrid rewrite of a
// filter at the bound (WithExtraFilter's And over it and a Comparison).
func (b Builder) Where(p Predicate) error {
	if p == nil || depth(p) <= MaxDepth {
		return nil
	}
	if and, ok := p.(And); ok && b.Strict && depth(p) == MaxDepth+1 && len(and.Children) == 2 {
		if _, ok := and.Children[1].(Comparison); ok {
			return nil
		}
	}
	return errDeep
}

// Finish checks the query-level rules of q, whose parts b made. Clauses that
// do not apply to the query's shape keep their defaults: TOP ranks groups and
// LIMIT pages rows, and what the engine ignores is not worth carrying,
// rendering or telling apart.
func (b Builder) Finish(q *Query) error {
	agg := q.IsAggregation()
	switch {
	case !isIdentToken(q.Table):
		return fmt.Errorf("pql: table %q is not an identifier", q.Table)
	case len(q.Select) == 0:
		return errors.New("pql: empty select list")
	case q.Top < 0 || q.Offset < 0 || q.Limit < 0:
		return fmt.Errorf("pql: negative TOP %d, OFFSET %d or LIMIT %d", q.Top, q.Offset, q.Limit)
	case q.GroupByExprs != nil && (len(q.GroupByExprs) != len(q.GroupBy) || !q.HasExprGroupBy()):
		return fmt.Errorf("pql: %d GROUP BY expressions for %d items", len(q.GroupByExprs), len(q.GroupBy))
	case slices.ContainsFunc(q.OrderBy, func(o OrderSpec) bool { return !isIdentToken(o.Column) }):
		return fmt.Errorf("pql: an ORDER BY column of %v is not an identifier", q.OrderBy)
	case !q.HasGroupBy() && q.Top != DefaultTop && b.Strict:
		return fmt.Errorf("pql: TOP %d without GROUP BY", q.Top)
	case agg && (q.Offset != 0 || q.Limit != DefaultLimit) && b.Strict:
		return fmt.Errorf("pql: LIMIT %d, %d on an aggregation", q.Offset, q.Limit)
	}
	for i := 0; b.Strict && i < len(q.GroupBy); i++ {
		var e Expr
		if q.GroupByExprs != nil {
			e = q.GroupByExprs[i]
		}
		if _, _, err := b.Key("", q.GroupBy[i], e); err != nil {
			return fmt.Errorf("pql: GROUP BY %s: %w", q.GroupBy[i], err)
		}
	}
	if !q.HasGroupBy() {
		q.Top = DefaultTop
	}
	if agg {
		q.Offset, q.Limit = 0, DefaultLimit
	}
	for _, e := range q.Select {
		switch {
		case e.IsAgg && e.Column == "*" && e.Func != Count:
			return fmt.Errorf("pql: %s(*) is not supported, only COUNT(*)", e.Func)
		case !e.IsAgg && e.Column == "*" && len(q.Select) > 1:
			return fmt.Errorf("pql: '*' cannot be combined with other select items")
		case !e.IsAgg && agg && !slices.Contains(q.GroupBy, e.Column):
			// Plain columns may accompany aggregations only as redundant
			// projections of GROUP BY columns (paper Figure 7 style).
			return fmt.Errorf("pql: column %q in select list must appear in GROUP BY", e.Column)
		}
	}
	switch {
	case q.HasGroupBy() && !agg:
		return fmt.Errorf("pql: GROUP BY requires aggregations in the select list")
	case len(q.OrderBy) > 0 && agg:
		return fmt.Errorf("pql: ORDER BY applies to selection queries only")
	}
	return nil
}

func isAggFunc(fn AggFunc) bool {
	got, ok := ParseAggFunc(string(fn))
	return ok && got == fn
}

// CompareOps are the comparison operators.
var CompareOps = [...]CompareOp{OpEq, OpNeq, OpLt, OpLte, OpGt, OpGte}

func checkCompareOp(op CompareOp) error {
	if slices.Contains(CompareOps[:], op) {
		return nil
	}
	return fmt.Errorf("unknown comparison operator %q", op)
}

// checkLiteral accepts the constants PQL text can spell: a finite double
// (neither the lexer nor the constant folder yields NaN or an infinity).
func checkLiteral(v any) error {
	switch x := v.(type) {
	case int64, string, bool:
		return nil
	case float64:
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			return nil
		}
	}
	return fmt.Errorf("%v (%T) is not a literal", v, v)
}

// isIdentToken reports whether s lexes as one identifier token.
func isIdentToken(s string) bool {
	if s == "" || !isIdentStart(rune(s[0])) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentPart(rune(s[i])) {
			return false
		}
	}
	return true
}

// isColumnName reports whether s reads as a column reference in an
// expression: an identifier that is not a boolean literal.
func isColumnName(s string) bool {
	return isIdentToken(s) && !strings.EqualFold(s, "true") && !strings.EqualFold(s, "false")
}

// depth is the number of predicate and expression nodes on the longest path
// from n down to a leaf: the nesting the data plane's codec meets carrying it.
func depth(n any) int {
	d := 0
	each(n, func(c any) { d = max(d, depth(c)) })
	return 1 + d
}

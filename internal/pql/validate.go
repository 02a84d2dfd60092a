package pql

import (
	"fmt"
	"math"
	"strings"
)

// Validate reports whether q is a query Parse could have produced, or the
// broker's hybrid rewrite of one (WithExtraFilter's And over a filter at
// MaxDepth), and returns nil only then. A query that passes renders to text
// that Parse turns back into the same tree, so a server that executes a
// validated query runs what it would have parsed from the text. The data
// plane's query decoder (internal/query/wire.go) calls it on every query that
// comes off the network.
func Validate(q *Query) error {
	if !isIdentToken(q.Table) {
		return fmt.Errorf("pql: table %q is not an identifier", q.Table)
	}
	if len(q.Select) == 0 {
		return fmt.Errorf("pql: empty select list")
	}
	for _, e := range q.Select {
		if err := checkSelectItem(e); err != nil {
			return err
		}
	}
	if err := checkFilter(q.Filter); err != nil {
		return err
	}
	if err := checkGroupBy(q); err != nil {
		return err
	}
	for _, o := range q.OrderBy {
		if !isIdentToken(o.Column) {
			return fmt.Errorf("pql: ORDER BY column %q is not an identifier", o.Column)
		}
	}
	switch {
	case q.Top < 0 || q.Offset < 0 || q.Limit < 0:
		return fmt.Errorf("pql: negative TOP %d, OFFSET %d or LIMIT %d", q.Top, q.Offset, q.Limit)
	case !q.HasGroupBy() && q.Top != DefaultTop:
		return fmt.Errorf("pql: TOP %d without GROUP BY", q.Top)
	case q.IsAggregation() && (q.Offset != 0 || q.Limit != DefaultLimit):
		return fmt.Errorf("pql: LIMIT %d, %d on an aggregation", q.Offset, q.Limit)
	}
	return validate(q)
}

func checkSelectItem(e Expression) error {
	switch {
	case !e.IsAgg:
		if e.Func != "" || e.Arg != nil || e.Column != "*" && !isColumnName(e.Column) {
			return fmt.Errorf("pql: select item %+v is not a column", e)
		}
		return nil
	case !isAggFunc(e.Func):
		return fmt.Errorf("pql: unknown aggregation %q", e.Func)
	case e.Arg == nil:
		if e.Column != "*" && !isColumnName(e.Column) {
			return fmt.Errorf("pql: %s argument %q is not a column", e.Func, e.Column)
		}
		return nil
	}
	if err := checkKey(e.Arg); err != nil {
		return err
	}
	if s := e.Arg.String(); e.Column != s {
		return fmt.Errorf("pql: %s column %q does not render its argument %s", e.Func, e.Column, s)
	}
	return nil
}

func isAggFunc(fn AggFunc) bool {
	got, ok := ParseAggFunc(string(fn))
	return ok && got == fn
}

// checkFilter checks a WHERE tree, whose depth may pass MaxDepth by the one
// level of the hybrid rewrite: an And whose second child is the boundary
// Comparison.
func checkFilter(f Predicate) error {
	if f == nil {
		return nil
	}
	if d := predDepth(f); d > MaxDepth {
		and, ok := f.(And)
		if d > MaxDepth+1 || !ok || len(and.Children) != 2 {
			return fmt.Errorf("pql: filter nests %d levels, deeper than %d", d, MaxDepth)
		}
		if _, ok := and.Children[1].(Comparison); !ok {
			return fmt.Errorf("pql: filter nests %d levels, deeper than %d", d, MaxDepth)
		}
	}
	return checkPred(f)
}

func checkGroupBy(q *Query) error {
	if q.GroupByExprs != nil && (len(q.GroupByExprs) != len(q.GroupBy) || !q.HasExprGroupBy()) {
		return fmt.Errorf("pql: %d GROUP BY expressions for %d items", len(q.GroupByExprs), len(q.GroupBy))
	}
	for i, g := range q.GroupBy {
		if q.GroupByExprs == nil || q.GroupByExprs[i] == nil {
			if !isColumnName(g) {
				return fmt.Errorf("pql: GROUP BY item %q is not a column", g)
			}
			continue
		}
		e := q.GroupByExprs[i]
		if err := checkKey(e); err != nil {
			return err
		}
		if s := e.String(); g != s {
			return fmt.Errorf("pql: GROUP BY item %q does not render its expression %s", g, s)
		}
	}
	return nil
}

// checkKey checks an aggregation argument or GROUP BY expression: Parse
// keeps one only when it is more than a bare column and not a constant.
func checkKey(e Expr) error {
	switch e.(type) {
	case Arith, Call:
	default:
		return fmt.Errorf("pql: expression %v stands where only arithmetic or a call is kept", e)
	}
	if d := exprDepth(e); d > MaxDepth {
		return fmt.Errorf("pql: expression nests %d levels, deeper than %d", d, MaxDepth)
	}
	return checkExprRoot(e)
}

func checkPred(p Predicate) error {
	switch n := p.(type) {
	case Comparison:
		if err := checkCompareOp(n.Op); err != nil {
			return err
		}
		return checkLiteral(n.Value)
	case In:
		if len(n.Values) == 0 {
			return fmt.Errorf("pql: IN with no values")
		}
		for _, v := range n.Values {
			if err := checkLiteral(v); err != nil {
				return err
			}
		}
		return nil
	case Between:
		if err := checkLiteral(n.Lo); err != nil {
			return err
		}
		return checkLiteral(n.Hi)
	case And:
		return checkChildren("AND", n.Children)
	case Or:
		return checkChildren("OR", n.Children)
	case Not:
		return checkPred(n.Child)
	case ExprCompare:
		if err := checkCompareOp(n.Op); err != nil {
			return err
		}
		if _, ok := n.LHS.(ColumnRef); ok {
			// A column on the left, quoted or not, reads as a Comparison
			// when the right side is a constant.
			if _, ok := n.RHS.(Literal); ok {
				return fmt.Errorf("pql: %v compares a column with a constant", n)
			}
		} else if err := checkExprRoot(n.LHS); err != nil {
			return err
		}
		return checkExprRoot(n.RHS)
	}
	return fmt.Errorf("pql: unknown predicate %T", p)
}

func checkChildren(op string, children []Predicate) error {
	if len(children) < 2 {
		return fmt.Errorf("pql: %s of %d children", op, len(children))
	}
	for _, c := range children {
		if err := checkPred(c); err != nil {
			return err
		}
	}
	return nil
}

// checkExprRoot checks an expression tree and that it is in the canonical
// form Parse leaves every expression in. Rendering tells trees checkExpr
// accepts apart: every Arith is parenthesized, and names and literals are
// tokens of their own kinds.
func checkExprRoot(e Expr) error {
	if err := checkExpr(e); err != nil {
		return err
	}
	if CanonicalExpr(e).String() != e.String() {
		return fmt.Errorf("pql: expression %v is not in canonical form", e)
	}
	return nil
}

func checkExpr(e Expr) error {
	switch n := e.(type) {
	case ColumnRef:
		if !isColumnName(n.Name) {
			return fmt.Errorf("pql: column reference %q is not an identifier", n.Name)
		}
		return nil
	case Literal:
		return checkLiteral(n.Value)
	case Arith:
		if ArithFunc(n.Op) == nil {
			return fmt.Errorf("pql: unknown arithmetic operator %q", n.Op)
		}
		if err := checkExpr(n.L); err != nil {
			return err
		}
		return checkExpr(n.R)
	case Call:
		f, ok := Builtin(n.Name)
		if !ok || f.Name != n.Name || len(n.Args) < f.MinArgs || len(n.Args) > f.MaxArgs {
			return fmt.Errorf("pql: no builtin %s of %d arguments", n.Name, len(n.Args))
		}
		for _, a := range n.Args {
			if err := checkExpr(a); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("pql: unknown expression %T", e)
}

func checkCompareOp(op CompareOp) error {
	switch op {
	case OpEq, OpNeq, OpLt, OpLte, OpGt, OpGte:
		return nil
	}
	return fmt.Errorf("pql: unknown comparison operator %q", op)
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
	return fmt.Errorf("pql: %v (%T) is not a literal", v, v)
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

// exprDepth is the number of nodes on e's longest root-to-leaf path.
func exprDepth(e Expr) int {
	d := 0
	switch n := e.(type) {
	case Arith:
		d = max(exprDepth(n.L), exprDepth(n.R))
	case Call:
		for _, a := range n.Args {
			d = max(d, exprDepth(a))
		}
	}
	return 1 + d
}

// predDepth is the number of predicate and expression nodes on p's longest
// root-to-leaf path: the nesting the data plane's codec meets carrying it.
func predDepth(p Predicate) int {
	d := 0
	switch n := p.(type) {
	case And:
		for _, c := range n.Children {
			d = max(d, predDepth(c))
		}
	case Or:
		for _, c := range n.Children {
			d = max(d, predDepth(c))
		}
	case Not:
		d = predDepth(n.Child)
	case ExprCompare:
		d = max(exprDepth(n.LHS), exprDepth(n.RHS))
	}
	return 1 + d
}

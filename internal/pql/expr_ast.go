package pql

import (
	"fmt"
	"math"
	"strings"
)

// Scalar expression AST. Expressions appear as aggregation arguments, on
// either side of a WHERE comparison, and as GROUP BY keys. They are rendered
// with explicit parentheses around every binary operation so that
// Parse(q.String()) reproduces the exact tree: the result cache keys on the
// rendering, and the data plane's query codec accepts exactly the trees whose
// rendering re-parses to themselves (pql.Validate).

// Expr is a scalar expression node.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// ColumnRef references a raw table column.
type ColumnRef struct {
	Name string
}

func (ColumnRef) isExpr() {}

func (e ColumnRef) String() string { return e.Name }

// Literal is a constant: int64, float64, string or bool.
type Literal struct {
	Value any
}

func (Literal) isExpr() {}

func (e Literal) String() string { return formatLiteral(e.Value) }

// ArithOp is a binary arithmetic operator.
type ArithOp string

// Supported arithmetic operators.
const (
	OpAdd ArithOp = "+"
	OpSub ArithOp = "-"
	OpMul ArithOp = "*"
	OpDiv ArithOp = "/"
)

// Arith applies a binary arithmetic operator.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

func (Arith) isExpr() {}

func (e Arith) String() string { return renderExpr(e) }

// Call invokes a builtin scalar function. Name is the canonical builtin name
// (see Builtin); the parser normalizes case on the way in.
type Call struct {
	Name string
	Args []Expr
}

func (Call) isExpr() {}

func (e Call) String() string { return renderExpr(e) }

// renderExpr renders a tree into one buffer: concatenating each node's
// children's strings would copy a deep tree's text once per level.
func renderExpr(e Expr) string {
	var sb strings.Builder
	writeExpr(&sb, e)
	return sb.String()
}

func writeExpr(sb *strings.Builder, e Expr) {
	switch n := e.(type) {
	case Arith:
		sb.WriteByte('(')
		writeExpr(sb, n.L)
		sb.WriteByte(' ')
		sb.WriteString(string(n.Op))
		sb.WriteByte(' ')
		writeExpr(sb, n.R)
		sb.WriteByte(')')
	case Call:
		sb.WriteString(n.Name)
		sb.WriteByte('(')
		for i, a := range n.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, a)
		}
		sb.WriteByte(')')
	case ColumnRef:
		sb.WriteString(n.Name)
	case Literal:
		writeLiteral(sb, n.Value)
	default:
		sb.WriteString(e.String())
	}
}

// ExprCompare is a predicate comparing two scalar expressions. Plain
// `column op literal` comparisons keep the dedicated Comparison node (index
// and pruning paths key on it); ExprCompare covers every other shape.
type ExprCompare struct {
	LHS Expr
	Op  CompareOp
	RHS Expr
}

func (ExprCompare) isPredicate() {}

func (p ExprCompare) String() string {
	lhs := p.LHS.String()
	// A bare column reference at the head of a predicate may carry a
	// non-identifier name (the quoted-column form, paper Figure 7); it must
	// re-render quoted or the text would re-parse as arithmetic. A string
	// literal there (a string builtin over literals folds to one) is
	// parenthesized for the converse reason: a leading quoted string
	// re-parses as a column.
	switch n := p.LHS.(type) {
	case ColumnRef:
		lhs = formatColumn(n.Name)
	case Literal:
		if _, ok := n.Value.(string); ok {
			lhs = "(" + lhs + ")"
		}
	}
	return fmt.Sprintf("%s %s %s", lhs, p.Op, p.RHS.String())
}

// ExprColumns returns the distinct column names referenced by an expression,
// in first-appearance order.
func ExprColumns(e Expr) []string {
	var out []string
	seen := map[string]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch n := e.(type) {
		case ColumnRef:
			if !seen[n.Name] {
				seen[n.Name] = true
				out = append(out, n.Name)
			}
		case Arith:
			walk(n.L)
			walk(n.R)
		case Call:
			for _, a := range n.Args {
				walk(a)
			}
		}
	}
	if e != nil {
		walk(e)
	}
	return out
}

// CanonicalExpr rewrites an expression into canonical form: children are
// canonicalized, all-constant subtrees fold to literals (running the
// builtin table's own bodies on a block of one, so the fold never changes
// results), and the two children of each commutative node (+, *) are ordered
// by rendered text so `a + b` and `b + a` share one rendering and therefore
// one result-cache entry. Chains are deliberately NOT re-associated: IEEE
// addition and multiplication commute but do not associate, and
// re-association would change double results.
func CanonicalExpr(e Expr) Expr {
	switch n := e.(type) {
	case Arith:
		l, r := CanonicalExpr(n.L), CanonicalExpr(n.R)
		if ll, lok := l.(Literal); lok {
			if rl, rok := r.(Literal); rok {
				if f := ArithFunc(n.Op); f != nil {
					if v, ok := f.apply([]any{ll.Value, rl.Value}); ok && foldable(v) {
						return Literal{Value: v}
					}
				}
			}
		}
		if n.Op == OpAdd || n.Op == OpMul {
			if r.String() < l.String() {
				l, r = r, l
			}
		}
		return Arith{Op: n.Op, L: l, R: r}
	case Call:
		args := make([]Expr, len(n.Args))
		allConst := true
		for i, a := range n.Args {
			args[i] = CanonicalExpr(a)
			if _, ok := args[i].(Literal); !ok {
				allConst = false
			}
		}
		if f, ok := builtins[n.Name]; allConst && ok && f.Name == n.Name {
			vals := make([]any, len(args))
			for i, a := range args {
				vals[i] = a.(Literal).Value
			}
			if v, ok := f.apply(vals); ok && foldable(v) {
				return Literal{Value: v}
			}
		}
		return Call{Name: n.Name, Args: args}
	default:
		return e
	}
}

// foldable rejects constants whose rendering would not survive a
// parse round trip (NaN and infinities have no literal syntax).
func foldable(v any) bool {
	f, ok := v.(float64)
	return !ok || (!math.IsNaN(f) && !math.IsInf(f, 0))
}

package pql

import "fmt"

// Scalar expression AST. Expressions appear as aggregation arguments, on
// either side of a WHERE comparison, and as GROUP BY keys. They are rendered
// with explicit parentheses around every binary operation so that
// Parse(q.String()) reproduces the exact tree: the result cache keys on the
// rendering. Every node is made by a Builder (build.go), the parser's and the
// data plane decoder's alike, so every tree is in canonical form.

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

func (e Literal) String() string { return render(e) }

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

func (e Arith) String() string { return render(e) }

// Call invokes a builtin scalar function. Name is the canonical builtin name
// (see Builtin); the parser normalizes case on the way in.
type Call struct {
	Name string
	Args []Expr
}

func (Call) isExpr() {}

func (e Call) String() string { return render(e) }

// ExprCompare is a predicate comparing two scalar expressions. Plain
// `column op literal` comparisons keep the dedicated Comparison node (index
// and pruning paths key on it); ExprCompare covers every other shape.
type ExprCompare struct {
	LHS Expr
	Op  CompareOp
	RHS Expr
}

func (ExprCompare) isPredicate() {}

func (p ExprCompare) String() string { return render(p) }

// ExprColumns returns the distinct column names referenced by an expression,
// in first-appearance order.
func ExprColumns(e Expr) []string { return addColumns(nil, e) }

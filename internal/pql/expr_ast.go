package pql

import (
	"fmt"
	"math"
	"strconv"
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
	// literal there (concat('a', 'b') folds to one) is parenthesized for the
	// converse reason: a leading quoted string re-parses as a column.
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

// builtinSpec describes one scalar builtin.
type builtinSpec struct {
	name             string // canonical rendering
	minArgs, maxArgs int
}

var builtins = map[string]builtinSpec{
	"timebucket": {name: "timeBucket", minArgs: 2, maxArgs: 2},
	"abs":        {name: "abs", minArgs: 1, maxArgs: 1},
	"lower":      {name: "lower", minArgs: 1, maxArgs: 1},
	"upper":      {name: "upper", minArgs: 1, maxArgs: 1},
	"concat":     {name: "concat", minArgs: 2, maxArgs: 16},
}

// Builtin resolves a function name (case-insensitive) to its canonical
// spelling and arity bounds.
func Builtin(name string) (canonical string, minArgs, maxArgs int, ok bool) {
	s, ok := builtins[strings.ToLower(name)]
	if !ok {
		return "", 0, 0, false
	}
	return s.name, s.minArgs, s.maxArgs, true
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

// Scalar semantics shared by the canonicalizer's constant folder and the
// internal/expr interpreter. Keeping them in one place is what makes folding
// sound: a folded literal must be bit-identical to evaluating the same node
// at runtime.
//
// Typing rules: int64 op int64 stays int64 with wrap-around, except `/`
// which always divides as float64; any float64 operand promotes both sides
// to float64. Strings and bools do not participate in arithmetic (concat is
// the string operator).

// ArithScalars applies a binary arithmetic operator to two literal scalars.
func ArithScalars(op ArithOp, a, b any) (any, error) {
	ai, aInt := a.(int64)
	bi, bInt := b.(int64)
	if aInt && bInt && op != OpDiv {
		switch op {
		case OpAdd:
			return ai + bi, nil
		case OpSub:
			return ai - bi, nil
		case OpMul:
			return ai * bi, nil
		}
	}
	af, err := numericScalar(a)
	if err != nil {
		return nil, fmt.Errorf("cannot apply %s to %s", op, typeName(a))
	}
	bf, err := numericScalar(b)
	if err != nil {
		return nil, fmt.Errorf("cannot apply %s to %s", op, typeName(b))
	}
	switch op {
	case OpAdd:
		return af + bf, nil
	case OpSub:
		return af - bf, nil
	case OpMul:
		return af * bf, nil
	case OpDiv:
		return af / bf, nil
	}
	return nil, fmt.Errorf("unknown operator %q", op)
}

// CallScalars applies a builtin to literal scalar arguments. The name must
// already be canonical.
func CallScalars(name string, args []any) (any, error) {
	switch name {
	case "timeBucket":
		ts, ok := args[0].(int64)
		if !ok {
			return nil, fmt.Errorf("timeBucket: first argument must be an integer, got %s", typeName(args[0]))
		}
		w, ok := args[1].(int64)
		if !ok || w <= 0 {
			return nil, fmt.Errorf("timeBucket: width must be a positive integer")
		}
		return FloorBucket(ts, w), nil
	case "abs":
		switch v := args[0].(type) {
		case int64:
			if v < 0 {
				return -v, nil // math.MinInt64 wraps, matching int64 negation
			}
			return v, nil
		case float64:
			return math.Abs(v), nil
		}
		return nil, fmt.Errorf("abs: argument must be numeric, got %s", typeName(args[0]))
	case "lower", "upper":
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("%s: argument must be a string, got %s", name, typeName(args[0]))
		}
		if name == "lower" {
			return strings.ToLower(s), nil
		}
		return strings.ToUpper(s), nil
	case "concat":
		var sb strings.Builder
		for _, a := range args {
			switch v := a.(type) {
			case string:
				sb.WriteString(v)
			case int64:
				sb.WriteString(strconv.FormatInt(v, 10))
			default:
				return nil, fmt.Errorf("concat: arguments must be strings or integers, got %s", typeName(a))
			}
		}
		return sb.String(), nil
	}
	return nil, fmt.Errorf("unknown function %q", name)
}

// FloorBucket rounds ts down to the start of its width-sized bucket,
// flooring toward negative infinity (so negative timestamps bucket
// correctly).
func FloorBucket(ts, width int64) int64 {
	q := ts / width
	if ts%width != 0 && (ts < 0) != (width < 0) {
		q--
	}
	return q * width
}

func numericScalar(v any) (float64, error) {
	switch x := v.(type) {
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	}
	return 0, fmt.Errorf("not numeric: %s", typeName(v))
}

func typeName(v any) string {
	switch v.(type) {
	case int64:
		return "long"
	case float64:
		return "double"
	case string:
		return "string"
	case bool:
		return "boolean"
	default:
		return fmt.Sprintf("%T", v)
	}
}

// CanonicalExpr rewrites an expression into canonical form: children are
// canonicalized, all-constant subtrees fold to literals (using the same
// scalar semantics the interpreter runs, so the fold never changes results),
// and the two children of each commutative node (+, *) are ordered by
// rendered text so `a + b` and `b + a` share one rendering and therefore one
// result-cache entry. Chains are deliberately NOT re-associated: IEEE
// addition and multiplication commute but do not associate, and
// re-association would change double results.
func CanonicalExpr(e Expr) Expr {
	switch n := e.(type) {
	case Arith:
		l, r := CanonicalExpr(n.L), CanonicalExpr(n.R)
		if ll, lok := l.(Literal); lok {
			if rl, rok := r.(Literal); rok {
				if v, err := ArithScalars(n.Op, ll.Value, rl.Value); err == nil && foldable(v) {
					return Literal{Value: v}
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
		if allConst {
			vals := make([]any, len(args))
			for i, a := range args {
				vals[i] = a.(Literal).Value
			}
			if v, err := CallScalars(n.Name, vals); err == nil && foldable(v) {
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

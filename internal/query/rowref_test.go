package query

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"pinot/internal/expr"
	"pinot/internal/pql"
	"pinot/internal/segment"
)

// The row reference: a tree interpreter that evaluates an expression for one
// row at a time, with scalar code of its own rather than the builtin table's
// bodies, so the oracle and TestKernelsMatchRowReference hold the block
// kernels to an independent implementation. It walks the tree children
// first, left to right, and stops at the first failure — the error the
// kernels must report for the lowest failing row of a block. Its limits are
// the kernels': 65536 nodes visited per row, 4096 bytes per constructed
// string.

const (
	refMaxSteps     = 65536
	refMaxStringLen = 4096
)

// refGetter returns the current row's value for a column: int64, float64,
// string or bool.
type refGetter func(name string) any

// refEval interprets e for one row.
func refEval(e pql.Expr, get refGetter) (any, error) {
	steps := 0
	return refEvalNode(&steps, e, get)
}

func refEvalNode(steps *int, e pql.Expr, get refGetter) (any, error) {
	if *steps++; *steps > refMaxSteps {
		return nil, fmt.Errorf("%w: more than %d evaluation steps", expr.ErrLimit, refMaxSteps)
	}
	switch n := e.(type) {
	case pql.Literal:
		return n.Value, nil
	case pql.ColumnRef:
		v := get(n.Name)
		if v == nil {
			return nil, fmt.Errorf("expr: unknown column %q", n.Name)
		}
		return v, nil
	case pql.Arith:
		l, err := refEvalNode(steps, n.L, get)
		if err != nil {
			return nil, err
		}
		r, err := refEvalNode(steps, n.R, get)
		if err != nil {
			return nil, err
		}
		return refArith(n.Op, l, r)
	case pql.Call:
		args := make([]any, len(n.Args))
		for i, a := range n.Args {
			v, err := refEvalNode(steps, a, get)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		v, err := refCall(n.Name, args)
		if err != nil {
			return nil, err
		}
		if s, ok := v.(string); ok && len(s) > refMaxStringLen {
			return nil, fmt.Errorf("%w: string of %d bytes exceeds %d", expr.ErrLimit, len(s), refMaxStringLen)
		}
		return v, nil
	}
	return nil, fmt.Errorf("expr: unsupported node %T", e)
}

// refArith applies a binary arithmetic operator to two scalars: int64 op
// int64 stays int64 with wrap-around, except `/`, which always divides as
// float64; any float64 operand promotes both sides to float64.
func refArith(op pql.ArithOp, a, b any) (any, error) {
	ai, aInt := a.(int64)
	bi, bInt := b.(int64)
	if aInt && bInt && op != pql.OpDiv {
		switch op {
		case pql.OpAdd:
			return ai + bi, nil
		case pql.OpSub:
			return ai - bi, nil
		case pql.OpMul:
			return ai * bi, nil
		}
	}
	af, err := refNumeric(a)
	if err != nil {
		return nil, fmt.Errorf("cannot apply %s to %s", op, refTypeName(a))
	}
	bf, err := refNumeric(b)
	if err != nil {
		return nil, fmt.Errorf("cannot apply %s to %s", op, refTypeName(b))
	}
	switch op {
	case pql.OpAdd:
		return af + bf, nil
	case pql.OpSub:
		return af - bf, nil
	case pql.OpMul:
		return af * bf, nil
	case pql.OpDiv:
		return af / bf, nil
	}
	return nil, fmt.Errorf("unknown operator %q", op)
}

// refCall applies a builtin, by canonical name, to scalar arguments.
func refCall(name string, args []any) (any, error) {
	switch name {
	case "timeBucket":
		ts, ok := args[0].(int64)
		if !ok {
			return nil, fmt.Errorf("timeBucket: first argument must be an integer, got %s", refTypeName(args[0]))
		}
		w, ok := args[1].(int64)
		if !ok || w <= 0 {
			return nil, fmt.Errorf("timeBucket: width must be a positive integer")
		}
		q := ts / w
		if ts%w != 0 && ts < 0 {
			q--
		}
		return q * w, nil
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
		return nil, fmt.Errorf("abs: argument must be numeric, got %s", refTypeName(args[0]))
	case "lower", "upper":
		s, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("%s: argument must be a string, got %s", name, refTypeName(args[0]))
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
				return nil, fmt.Errorf("concat: arguments must be strings or integers, got %s", refTypeName(a))
			}
		}
		return sb.String(), nil
	}
	return nil, fmt.Errorf("unknown function %q", name)
}

// refCompare applies a comparison to two evaluated scalars. Two longs
// compare in int64; mixed numerics compare in float64.
func refCompare(op pql.CompareOp, a, b any) (bool, error) {
	if ai, ok := a.(int64); ok {
		if bi, ok := b.(int64); ok {
			return refOrdered(op, ai, bi)
		}
	}
	if as, ok := a.(string); ok {
		if bs, ok := b.(string); ok {
			return refOrdered(op, as, bs)
		}
	}
	if ab, ok := a.(bool); ok {
		if bb, ok := b.(bool); ok {
			switch op {
			case pql.OpEq:
				return ab == bb, nil
			case pql.OpNeq:
				return ab != bb, nil
			}
			return false, errors.New("expr: booleans only compare with = and <>")
		}
	}
	af, aerr := refNumeric(a)
	bf, berr := refNumeric(b)
	if aerr != nil || berr != nil {
		return false, fmt.Errorf("expr: cannot compare %T with %T", a, b)
	}
	return refOrdered(op, af, bf)
}

func refOrdered[T int64 | float64 | string](op pql.CompareOp, a, b T) (bool, error) {
	switch op {
	case pql.OpEq:
		return a == b, nil
	case pql.OpNeq:
		return a != b, nil
	case pql.OpLt:
		return a < b, nil
	case pql.OpLte:
		return a <= b, nil
	case pql.OpGt:
		return a > b, nil
	case pql.OpGte:
		return a >= b, nil
	}
	return false, fmt.Errorf("expr: unknown comparison operator %q", op)
}

func refNumeric(v any) (float64, error) {
	switch x := v.(type) {
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	}
	return 0, fmt.Errorf("not numeric")
}

func refTypeName(v any) string {
	switch v.(type) {
	case int64:
		return "long"
	case float64:
		return "double"
	case string:
		return "string"
	case bool:
		return "boolean"
	}
	return fmt.Sprintf("%T", v)
}

// readScalarValue reads one document's value in canonical scalar form:
// int64, float64, string or bool.
func readScalarValue(col segment.ColumnReader, doc int) any {
	if col.HasDictionary() {
		return col.Value(col.DictID(doc))
	}
	if col.Spec().Type.Integral() {
		return col.Long(doc)
	}
	return col.Double(doc)
}

// vecSource serves kernel slots from in-memory columns.
type vecSource struct {
	cols []string
	data map[string]*pql.Vec
}

func (s *vecSource) Col(slot int, docs []int, dst *pql.Vec) {
	pql.Gather(dst, s.data[s.cols[slot]], docs)
}

// randKindExpr draws a type-correct expression of kind want over the columns
// of TestKernelsMatchRowReference, failing shapes among them.
func randKindExpr(r *rand.Rand, depth int, want pql.Kind) pql.Expr {
	col := func(names ...string) pql.Expr { return pql.ColumnRef{Name: names[r.Intn(len(names))]} }
	call := func(name string, args ...pql.Expr) pql.Expr { return pql.Call{Name: name, Args: args} }
	if depth == 0 || r.Intn(4) == 0 {
		switch want {
		case pql.String:
			return col("s")
		case pql.Long:
			return col("l", "w")
		}
		return col("d")
	}
	switch want {
	case pql.String:
		if r.Intn(2) == 0 {
			return call([]string{"lower", "upper"}[r.Intn(2)], randKindExpr(r, depth-1, pql.String))
		}
		return call("concat", randKindExpr(r, depth-1, pql.String), randKindExpr(r, depth-1, pql.Long), randKindExpr(r, depth-1, pql.String))
	case pql.Long:
		switch r.Intn(3) {
		case 0:
			return call("abs", randKindExpr(r, depth-1, pql.Long))
		case 1:
			return call("timeBucket", randKindExpr(r, depth-1, pql.Long), randKindExpr(r, depth-1, pql.Long))
		}
		return pql.Arith{Op: []pql.ArithOp{pql.OpAdd, pql.OpSub, pql.OpMul}[r.Intn(3)],
			L: randKindExpr(r, depth-1, pql.Long), R: randKindExpr(r, depth-1, pql.Long)}
	}
	if r.Intn(3) == 0 {
		return call("abs", randKindExpr(r, depth-1, pql.Double))
	}
	return pql.Arith{Op: []pql.ArithOp{pql.OpAdd, pql.OpSub, pql.OpMul, pql.OpDiv}[r.Intn(4)],
		L: randKindExpr(r, depth-1, pql.Double), R: randKindExpr(r, depth-1, []pql.Kind{pql.Long, pql.Double}[r.Intn(2)])}
}

// TestKernelsMatchRowReference holds the block kernels to the row reference:
// on every row before a block's lowest failing row the reference computes
// the kernel's value, bit for bit, and on that row it fails with the
// kernel's error.
func TestKernelsMatchRowReference(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	const rows = 300
	src := &vecSource{data: map[string]*pql.Vec{
		"l": {Kind: pql.Long}, "w": {Kind: pql.Long}, "d": {Kind: pql.Double}, "s": {Kind: pql.String},
	}}
	for i := 0; i < rows; i++ {
		src.data["l"].Longs = append(src.data["l"].Longs, r.Int63()-(1<<62))
		// Widths: mostly positive, a zero or negative one in every ~40 rows.
		src.data["w"].Longs = append(src.data["w"].Longs, int64(r.Intn(400)-10))
		src.data["d"].Doubles = append(src.data["d"].Doubles, (r.Float64()-0.5)*1e6)
		s := strings.Repeat("aB", r.Intn(5))
		if r.Intn(60) == 0 {
			s = strings.Repeat("Zz", 1100) // doubled by a concat, past the string limit
		}
		src.data["s"].Strings = append(src.data["s"].Strings, s)
	}
	kindOf := func(name string) (pql.Kind, bool) {
		v, ok := src.data[name]
		return v.Kind, ok
	}
	docs := make([]int, rows)
	for i := range docs {
		docs[i] = i
	}
	failed := 0
	for iter := 0; iter < 600; iter++ {
		e := randKindExpr(r, 1+r.Intn(4), []pql.Kind{pql.Long, pql.Double, pql.String}[iter%3])
		k, err := expr.Compile(e, kindOf)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		src.cols = k.Cols
		v, brow, berr := k.Eval(src, docs)
		for i := range docs {
			want, err := refEval(e, func(name string) any { return src.data[name].Value(i) })
			if berr != nil && i == brow {
				if err == nil || err.Error() != berr.Error() {
					t.Fatalf("%s: row %d: the kernel fails with %v, the reference with %v", e, i, berr, err)
				}
				failed++
				break
			}
			if err != nil {
				t.Fatalf("%s: row %d: the reference fails with %v, the kernel (%v at %d) does not", e, i, err, berr, brow)
			}
			got := v.Value(i)
			if gf, ok := got.(float64); ok {
				if wf, ok := want.(float64); !ok || math.Float64bits(gf) != math.Float64bits(wf) {
					t.Fatalf("%s: row %d: kernel %v, reference %v", e, i, got, want)
				}
			} else if got != want {
				t.Fatalf("%s: row %d: kernel %v, reference %v", e, i, got, want)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no expression failed: the error choice went unchecked")
	}
}

// Package expr evaluates PQL scalar expressions. It has two execution
// shapes: a typed, resource-limited tree interpreter that walks the pql AST
// one row at a time (the sandboxed fallback, also used for ingestion-time
// transforms), and a compiler that lowers numeric expressions over
// long/double inputs into typed block kernels so the vectorized engine
// keeps its batch shape (compile.go). Both shapes share the scalar
// semantics in pql (ArithScalars/CallScalars), which is what makes
// constant folding and the compiled/interpreted differential sound.
package expr

import (
	"errors"
	"fmt"

	"pinot/internal/pql"
	"pinot/internal/segment"
)

// Kind is the static type of an expression.
type Kind uint8

// Expression types.
const (
	Long Kind = iota
	Double
	String
	Bool
)

func (k Kind) String() string {
	switch k {
	case Long:
		return "long"
	case Double:
		return "double"
	case String:
		return "string"
	case Bool:
		return "boolean"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Numeric reports whether the kind participates in arithmetic.
func (k Kind) Numeric() bool { return k == Long || k == Double }

// KindOf maps a column data type to its expression kind.
func KindOf(t segment.DataType) Kind {
	switch t {
	case segment.TypeInt, segment.TypeLong:
		return Long
	case segment.TypeFloat, segment.TypeDouble:
		return Double
	case segment.TypeBoolean:
		return Bool
	default:
		return String
	}
}

// Limits bounds the interpreter's resource use. Every Eval call enforces
// them from zero — the step cap is per evaluation, so one runaway expression
// cannot starve the row after it of budget it never used.
type Limits struct {
	// MaxSteps caps AST nodes visited per evaluation.
	MaxSteps int
	// MaxStringLen caps the byte length of any constructed string
	// (concat/lower/upper results).
	MaxStringLen int
	// MaxListLen caps argument-list lengths.
	MaxListLen int
}

// DefaultLimits are generous for hand-written queries and fatal for
// runaway ones.
func DefaultLimits() Limits {
	return Limits{MaxSteps: 65536, MaxStringLen: 4096, MaxListLen: 256}
}

// ErrLimit marks an evaluation stopped by a resource limit.
var ErrLimit = errors.New("expr: resource limit exceeded")

// checkEvery is the step interval between cancellation polls.
const checkEvery = 64

// Ctx carries limits and cooperative cancellation into evaluation. One Ctx
// serves many Eval calls (one per row); it is not safe for concurrent use.
type Ctx struct {
	Limits Limits
	// Check, when set, is polled every checkEvery steps; a non-nil return
	// aborts the evaluation (qctx deadline, consumer shutdown).
	Check func() error
	steps int
}

// NewCtx returns a Ctx with the given limits; zero-valued limit fields fall
// back to the defaults.
func NewCtx(l Limits) *Ctx {
	d := DefaultLimits()
	if l.MaxSteps <= 0 {
		l.MaxSteps = d.MaxSteps
	}
	if l.MaxStringLen <= 0 {
		l.MaxStringLen = d.MaxStringLen
	}
	if l.MaxListLen <= 0 {
		l.MaxListLen = d.MaxListLen
	}
	return &Ctx{Limits: l}
}

func (c *Ctx) step() error {
	c.steps++
	if c.steps > c.Limits.MaxSteps {
		return fmt.Errorf("%w: more than %d evaluation steps", ErrLimit, c.Limits.MaxSteps)
	}
	if c.Check != nil && c.steps%checkEvery == 0 {
		if err := c.Check(); err != nil {
			return err
		}
	}
	return nil
}

func (c *Ctx) checkString(s string) (string, error) {
	if len(s) > c.Limits.MaxStringLen {
		return "", fmt.Errorf("%w: string of %d bytes exceeds %d", ErrLimit, len(s), c.Limits.MaxStringLen)
	}
	return s, nil
}

// Getter returns the current row's value for a column: int64, float64,
// string or bool.
type Getter func(name string) any

// Eval interprets an expression for one row. The step counter restarts at
// every call; string/list bounds apply to every intermediate value.
func Eval(c *Ctx, e pql.Expr, get Getter) (any, error) {
	c.steps = 0
	return eval(c, e, get)
}

func eval(c *Ctx, e pql.Expr, get Getter) (any, error) {
	if err := c.step(); err != nil {
		return nil, err
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
		l, err := eval(c, n.L, get)
		if err != nil {
			return nil, err
		}
		r, err := eval(c, n.R, get)
		if err != nil {
			return nil, err
		}
		return pql.ArithScalars(n.Op, l, r)
	case pql.Call:
		if len(n.Args) > c.Limits.MaxListLen {
			return nil, fmt.Errorf("%w: %d arguments exceed %d", ErrLimit, len(n.Args), c.Limits.MaxListLen)
		}
		args := make([]any, len(n.Args))
		for i, a := range n.Args {
			v, err := eval(c, a, get)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		v, err := pql.CallScalars(n.Name, args)
		if err != nil {
			return nil, err
		}
		if s, ok := v.(string); ok {
			return c.checkString(s)
		}
		return v, nil
	}
	return nil, fmt.Errorf("expr: unsupported node %T", e)
}

// Infer type-checks an expression against column kinds and returns its
// result kind. kindOf reports the kind of a referenced column, false for
// unknown columns.
func Infer(e pql.Expr, kindOf func(name string) (Kind, bool)) (Kind, error) {
	switch n := e.(type) {
	case pql.Literal:
		switch n.Value.(type) {
		case int64:
			return Long, nil
		case float64:
			return Double, nil
		case string:
			return String, nil
		case bool:
			return Bool, nil
		}
		return 0, fmt.Errorf("expr: unsupported literal type %T", n.Value)
	case pql.ColumnRef:
		k, ok := kindOf(n.Name)
		if !ok {
			return 0, fmt.Errorf("expr: unknown column %q", n.Name)
		}
		return k, nil
	case pql.Arith:
		lk, err := Infer(n.L, kindOf)
		if err != nil {
			return 0, err
		}
		rk, err := Infer(n.R, kindOf)
		if err != nil {
			return 0, err
		}
		if !lk.Numeric() || !rk.Numeric() {
			return 0, fmt.Errorf("expr: cannot apply %s to %s and %s", n.Op, lk, rk)
		}
		if n.Op != pql.OpDiv && lk == Long && rk == Long {
			return Long, nil
		}
		return Double, nil
	case pql.Call:
		kinds := make([]Kind, len(n.Args))
		for i, a := range n.Args {
			k, err := Infer(a, kindOf)
			if err != nil {
				return 0, err
			}
			kinds[i] = k
		}
		switch n.Name {
		case "timeBucket":
			if kinds[0] != Long || kinds[1] != Long {
				return 0, fmt.Errorf("expr: timeBucket takes (long, long), got (%s, %s)", kinds[0], kinds[1])
			}
			return Long, nil
		case "abs":
			if !kinds[0].Numeric() {
				return 0, fmt.Errorf("expr: abs takes a numeric argument, got %s", kinds[0])
			}
			return kinds[0], nil
		case "lower", "upper":
			if kinds[0] != String {
				return 0, fmt.Errorf("expr: %s takes a string argument, got %s", n.Name, kinds[0])
			}
			return String, nil
		case "concat":
			for i, k := range kinds {
				if k != String && k != Long {
					return 0, fmt.Errorf("expr: concat argument %d must be string or long, got %s", i+1, k)
				}
			}
			return String, nil
		}
		return 0, fmt.Errorf("expr: unknown function %q", n.Name)
	}
	return 0, fmt.Errorf("expr: unsupported node %T", e)
}

// CompareKinds validates a comparison between two already-inferred kinds.
func CompareKinds(op pql.CompareOp, lk, rk Kind) error {
	switch {
	case lk.Numeric() && rk.Numeric():
		return nil
	case lk == String && rk == String:
		return nil
	case lk == Bool && rk == Bool:
		if op != pql.OpEq && op != pql.OpNeq {
			return fmt.Errorf("expr: booleans only compare with = and <>")
		}
		return nil
	}
	return fmt.Errorf("expr: cannot compare %s with %s", lk, rk)
}

// CompareValues applies a comparison to two evaluated scalars. Two longs
// compare in int64 (no precision loss on large counts); mixed numerics
// compare in float64 — the same rule the compiled comparison kernels use,
// so both paths agree bit-for-bit.
func CompareValues(op pql.CompareOp, a, b any) (bool, error) {
	if ai, ok := a.(int64); ok {
		if bi, ok := b.(int64); ok {
			return cmpOrdered(op, ai, bi)
		}
	}
	if as, ok := a.(string); ok {
		if bs, ok := b.(string); ok {
			return cmpOrdered(op, as, bs)
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
			return false, fmt.Errorf("expr: booleans only compare with = and <>")
		}
	}
	af, aerr := numeric(a)
	bf, berr := numeric(b)
	if aerr != nil || berr != nil {
		return false, fmt.Errorf("expr: cannot compare %T with %T", a, b)
	}
	return cmpOrdered(op, af, bf)
}

func cmpOrdered[T int64 | float64 | string](op pql.CompareOp, a, b T) (bool, error) {
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

func numeric(v any) (float64, error) {
	switch x := v.(type) {
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	}
	return 0, fmt.Errorf("not numeric")
}

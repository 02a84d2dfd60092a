package pql

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
)

// The builtin table: every scalar function and arithmetic operator is
// declared once, here. The node constructors (build.go) read an entry's name
// and arity, the constant folder runs its body on a block of one, the kind pass
// of internal/expr reads its Kind rule, the block kernels run its body over
// whole blocks, and dictionary space reads its Fold. A new builtin is one
// entry.
//
// Every entry is a pure function of its arguments: no state, no clock, no
// randomness. Dictionary space relies on it, evaluating an expression once
// per dictionary entry and serving every row that carries the entry.

// Kind is the static type of an expression.
type Kind uint8

// Expression kinds.
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

// KindOfValue reports the kind of a literal value: int64, float64, string
// or bool.
func KindOfValue(v any) (Kind, bool) {
	switch v.(type) {
	case int64:
		return Long, true
	case float64:
		return Double, true
	case string:
		return String, true
	case bool:
		return Bool, true
	}
	return 0, false
}

// Vec is a typed block of values: the slice of its Kind holds them, the
// others are unused.
type Vec struct {
	Kind    Kind
	Longs   []int64
	Doubles []float64
	Strings []string
	Bools   []bool
}

// Resize makes the slice of v's kind n long, reusing its capacity.
func (v *Vec) Resize(n int) {
	switch v.Kind {
	case Long:
		v.Longs = resize(v.Longs, n)
	case Double:
		v.Doubles = resize(v.Doubles, n)
	case String:
		v.Strings = resize(v.Strings, n)
	default:
		v.Bools = resize(v.Bools, n)
	}
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Len is the number of values.
func (v *Vec) Len() int {
	switch v.Kind {
	case Long:
		return len(v.Longs)
	case Double:
		return len(v.Doubles)
	case String:
		return len(v.Strings)
	}
	return len(v.Bools)
}

// Value boxes the i-th value.
func (v *Vec) Value(i int) any {
	switch v.Kind {
	case Long:
		return v.Longs[i]
	case Double:
		return v.Doubles[i]
	case String:
		return v.Strings[i]
	}
	return v.Bools[i]
}

// Set sets the i-th value to x, a value of v's kind; a value of another
// type sets the zero value.
func (v *Vec) Set(i int, x any) {
	switch v.Kind {
	case Long:
		v.Longs[i], _ = x.(int64)
	case Double:
		v.Doubles[i], _ = x.(float64)
	case String:
		v.Strings[i], _ = x.(string)
	default:
		v.Bools[i], _ = x.(bool)
	}
}

// Fill sets the first n values to x, a value of v's kind; a value of another
// type sets the zero value.
func (v *Vec) Fill(n int, x any) {
	switch v.Kind {
	case Long:
		fill(v.Longs[:n], x)
	case Double:
		fill(v.Doubles[:n], x)
	case String:
		fill(v.Strings[:n], x)
	default:
		fill(v.Bools[:n], x)
	}
}

func fill[T any](s []T, x any) {
	c, _ := x.(T)
	for i := range s {
		s[i] = c
	}
}

// Append appends the first n values of src, a Vec of v's kind.
func (v *Vec) Append(src *Vec, n int) {
	switch v.Kind {
	case Long:
		v.Longs = append(v.Longs, src.Longs[:n]...)
	case Double:
		v.Doubles = append(v.Doubles, src.Doubles[:n]...)
	case String:
		v.Strings = append(v.Strings, src.Strings[:n]...)
	default:
		v.Bools = append(v.Bools, src.Bools[:n]...)
	}
}

// Gather sets the first len(idx) values of dst, of src's kind, to src's
// values at idx.
func Gather[I int | uint32](dst, src *Vec, idx []I) {
	switch src.Kind {
	case Long:
		gather(dst.Longs, src.Longs, idx)
	case Double:
		gather(dst.Doubles, src.Doubles, idx)
	case String:
		gather(dst.Strings, src.Strings, idx)
	default:
		gather(dst.Bools, src.Bools, idx)
	}
}

func gather[T any, I int | uint32](dst, src []T, idx []I) {
	for i, j := range idx {
		dst[i] = src[j]
	}
}

// Func is one builtin or arithmetic operator.
type Func struct {
	// Name is the canonical spelling: "timeBucket", "+".
	Name             string
	MinArgs, MaxArgs int
	// Kind types a call from its arguments' kinds; the error names the rule
	// they break.
	Kind func(args []Kind) (Kind, error)
	// Eval computes rows [0, n) of out, sized and of the kind Kind gave, from
	// args of the kinds Kind accepted. On failure it returns the lowest row
	// that fails and its error; out's rows from there on are unspecified.
	Eval func(args []*Vec, out *Vec, n int) (row int, err error)
	// Fold, set for lower and upper, is the rune case mapping the result
	// applies: dictionary space probes a literal's preimages under it.
	Fold func(rune) rune
}

var (
	builtins = map[string]*Func{}
	arithOps = map[ArithOp]*Func{}
)

func init() {
	for _, f := range []*Func{
		{Name: "timeBucket", MinArgs: 2, MaxArgs: 2, Kind: timeBucketKind, Eval: timeBucket},
		{Name: "abs", MinArgs: 1, MaxArgs: 1, Kind: absKind, Eval: abs},
		caseFunc("lower", strings.ToLower, unicode.ToLower),
		caseFunc("upper", strings.ToUpper, unicode.ToUpper),
		{Name: "concat", MinArgs: 2, MaxArgs: 16, Kind: concatKind, Eval: concat},
	} {
		// Canonical spellings resolve without lower-casing.
		builtins[strings.ToLower(f.Name)], builtins[f.Name] = f, f
	}
	for _, op := range []ArithOp{OpAdd, OpSub, OpMul, OpDiv} {
		arithOps[op] = arith(op)
	}
}

// Builtin resolves a function name, case-insensitively, to its entry.
func Builtin(name string) (*Func, bool) {
	if f, ok := builtins[name]; ok {
		return f, true
	}
	f, ok := builtins[strings.ToLower(name)]
	return f, ok
}

// ArithFunc returns the entry of an arithmetic operator, nil for an unknown
// one.
func ArithFunc(op ArithOp) *Func { return arithOps[op] }

// fold runs f on a block of one: the constant folder's evaluation of a node.
// ok is false unless every argument is a literal, they keep f's kind rule,
// its body succeeds and the result has a literal's spelling (NaN and the
// infinities have none).
func (f *Func) fold(args []Expr) (v any, ok bool) {
	if slices.ContainsFunc(args, func(a Expr) bool { _, lit := a.(Literal); return !lit }) {
		return nil, false
	}
	kinds := make([]Kind, len(args))
	vecs := make([]*Vec, len(args))
	for i, a := range args {
		v := a.(Literal).Value
		if kinds[i], ok = KindOfValue(v); !ok {
			return nil, false
		}
		vecs[i] = &Vec{Kind: kinds[i]}
		vecs[i].Resize(1)
		vecs[i].Set(0, v)
	}
	k, err := f.Kind(kinds)
	if err != nil {
		return nil, false
	}
	out := &Vec{Kind: k}
	out.Resize(1)
	if _, err := f.Eval(vecs, out, 1); err != nil {
		return nil, false
	}
	v = out.Value(0)
	return v, checkLiteral(v) == nil
}

// Arithmetic: long op long stays long with wrap-around, except `/`, which
// always divides as double; a double operand promotes the other side, after
// its own subtree computed as long. Strings and booleans do not take part
// (concat is the string operator).
func arith(op ArithOp) *Func {
	return &Func{Name: string(op), MinArgs: 2, MaxArgs: 2,
		Kind: func(k []Kind) (Kind, error) {
			if !k[0].Numeric() || !k[1].Numeric() {
				return 0, fmt.Errorf("cannot apply %s to %s and %s", op, k[0], k[1])
			}
			if op != OpDiv && k[0] == Long && k[1] == Long {
				return Long, nil
			}
			return Double, nil
		},
		Eval: func(a []*Vec, out *Vec, n int) (int, error) {
			l, r := a[0], a[1]
			if out.Kind == Long {
				arithBlock(op, l.Longs[:n], r.Longs[:n], out.Longs[:n])
				return 0, nil
			}
			dst := out.Doubles[:n]
			switch {
			case l.Kind == Long && r.Kind == Long:
				arithBlock(op, l.Longs[:n], r.Longs[:n], dst)
			case l.Kind == Long:
				arithBlock(op, l.Longs[:n], r.Doubles[:n], dst)
			case r.Kind == Long:
				arithBlock(op, l.Doubles[:n], r.Longs[:n], dst)
			default:
				arithBlock(op, l.Doubles[:n], r.Doubles[:n], dst)
			}
			return 0, nil
		}}
}

// arithBlock applies op element by element, converting each operand to the
// result's type first. A long result never divides: `/` is double.
func arithBlock[L, R, T int64 | float64](op ArithOp, l []L, r []R, dst []T) {
	l, r = l[:len(dst)], r[:len(dst)]
	switch op {
	case OpAdd:
		for i := range dst {
			dst[i] = T(l[i]) + T(r[i])
		}
	case OpSub:
		for i := range dst {
			dst[i] = T(l[i]) - T(r[i])
		}
	case OpMul:
		for i := range dst {
			dst[i] = T(l[i]) * T(r[i])
		}
	case OpDiv:
		for i := range dst {
			dst[i] = T(l[i]) / T(r[i])
		}
	}
}

func timeBucketKind(k []Kind) (Kind, error) {
	if k[0] != Long || k[1] != Long {
		return 0, fmt.Errorf("timeBucket takes (long, long), got (%s, %s)", k[0], k[1])
	}
	return Long, nil
}

var errBucketWidth = errors.New("timeBucket: width must be a positive integer")

func timeBucket(a []*Vec, out *Vec, n int) (int, error) {
	ts, w, dst := a[0].Longs[:n], a[1].Longs[:n], out.Longs[:n]
	for i := range dst {
		if w[i] <= 0 {
			return i, errBucketWidth
		}
		dst[i] = floorBucket(ts[i], w[i])
	}
	return 0, nil
}

// floorBucket rounds ts down to the start of its width-sized bucket,
// flooring toward negative infinity (so negative timestamps bucket
// correctly).
func floorBucket(ts, width int64) int64 {
	q := ts / width
	if ts%width != 0 && (ts < 0) != (width < 0) {
		q--
	}
	return q * width
}

func absKind(k []Kind) (Kind, error) {
	if !k[0].Numeric() {
		return 0, fmt.Errorf("abs takes a numeric argument, got %s", k[0])
	}
	return k[0], nil
}

func abs(a []*Vec, out *Vec, n int) (int, error) {
	if out.Kind == Long {
		src, dst := a[0].Longs[:n], out.Longs[:n]
		for i, v := range src {
			if v < 0 {
				v = -v // MinInt64 wraps, as int64 negation does
			}
			dst[i] = v
		}
		return 0, nil
	}
	src, dst := a[0].Doubles[:n], out.Doubles[:n]
	for i, v := range src {
		// A sign-bit clear: -0.0 becomes +0.0 and -NaN +NaN.
		dst[i] = math.Abs(v)
	}
	return 0, nil
}

// caseFunc declares lower or upper: fold maps a string, mapRune the same
// mapping rune by rune (strings.ToLower is strings.Map(unicode.ToLower)).
func caseFunc(name string, fold func(string) string, mapRune func(rune) rune) *Func {
	return &Func{Name: name, MinArgs: 1, MaxArgs: 1, Fold: mapRune,
		Kind: func(k []Kind) (Kind, error) {
			if k[0] != String {
				return 0, fmt.Errorf("%s takes a string argument, got %s", name, k[0])
			}
			return String, nil
		},
		Eval: func(a []*Vec, out *Vec, n int) (int, error) {
			src, dst := a[0].Strings[:n], out.Strings[:n]
			for i, s := range src {
				dst[i] = fold(s)
			}
			return 0, nil
		}}
}

func concatKind(k []Kind) (Kind, error) {
	for i, kind := range k {
		if kind != String && kind != Long {
			return 0, fmt.Errorf("concat argument %d must be string or long, got %s", i+1, kind)
		}
	}
	return String, nil
}

func concat(a []*Vec, out *Vec, n int) (int, error) {
	var buf []byte
	for i := range out.Strings[:n] {
		buf = buf[:0]
		for _, arg := range a {
			if arg.Kind == String {
				buf = append(buf, arg.Strings[i]...)
			} else {
				buf = strconv.AppendInt(buf, arg.Longs[i], 10)
			}
		}
		out.Strings[i] = string(buf)
	}
	return 0, nil
}

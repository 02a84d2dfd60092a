package expr

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"pinot/internal/pql"
)

// memSource serves kernel slots from in-memory columns, one pql.Vec per
// column name.
type memSource struct {
	cols []string
	data map[string]*pql.Vec
}

func (m *memSource) Col(slot int, docs []int, dst *pql.Vec) {
	pql.Gather(dst, m.data[m.cols[slot]], docs)
}

func (m *memSource) kindOf(name string) (pql.Kind, bool) {
	v, ok := m.data[name]
	if !ok {
		return 0, false
	}
	return v.Kind, true
}

func longs(vs ...int64) *pql.Vec     { return &pql.Vec{Kind: pql.Long, Longs: vs} }
func doubles(vs ...float64) *pql.Vec { return &pql.Vec{Kind: pql.Double, Doubles: vs} }
func strs(vs ...string) *pql.Vec     { return &pql.Vec{Kind: pql.String, Strings: vs} }

func col(name string) pql.Expr { return pql.ColumnRef{Name: name} }
func lit(v any) pql.Expr       { return pql.Literal{Value: v} }
func call(name string, args ...pql.Expr) pql.Expr {
	return pql.Call{Name: name, Args: args}
}

// run compiles e over src's columns and evaluates it over all n rows.
func run(t *testing.T, e pql.Expr, src *memSource, n int) (*pql.Vec, int, error) {
	t.Helper()
	k, err := Compile(e, src.kindOf)
	if err != nil {
		t.Fatalf("Compile(%s): %v", e, err)
	}
	src.cols = k.Cols
	docs := make([]int, n)
	for i := range docs {
		docs[i] = i
	}
	return k.Eval(src, docs)
}

// mustRun is run for an expression no row of which may fail.
func mustRun(t *testing.T, e pql.Expr, src *memSource, n int) *pql.Vec {
	t.Helper()
	v, row, err := run(t, e, src, n)
	if err != nil {
		t.Fatalf("%s: row %d: %v", e, row, err)
	}
	return v
}

// --- The table's entries, run by kernels over whole blocks, against naive
// oracles, one per builtin. Each oracle is an independent Go implementation
// (different formula or stdlib call), so a bug in an entry cannot hide
// behind itself.

func TestOracleTimeBucket(t *testing.T) {
	// Oracle: floor via the always-positive remainder, a different formula
	// from the table's quotient correction.
	oracle := func(ts, w int64) int64 {
		r := ts % w
		if r < 0 {
			r += w
		}
		return ts - r
	}
	r := rand.New(rand.NewSource(31))
	ts := longs(0, 1, -1, 59, -59, 86399, -86400, math.MaxInt64, math.MinInt64+1)
	for i := 0; i < 2000; i++ {
		ts.Longs = append(ts.Longs, r.Int63n(1<<40)-(1<<39))
	}
	for _, w := range []int64{1, 2, 7, 60, 86400, 1 << 31} {
		src := &memSource{data: map[string]*pql.Vec{"ts": ts}}
		got := mustRun(t, call("timeBucket", col("ts"), lit(w)), src, len(ts.Longs))
		for i, x := range ts.Longs {
			if want := oracle(x, w); got.Longs[i] != want {
				t.Fatalf("timeBucket(%d, %d) = %d, oracle says %d", x, w, got.Longs[i], want)
			}
		}
	}
}

func TestOracleAbs(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	ls, ds := longs(math.MinInt64), doubles(math.Copysign(0, -1), math.Inf(-1))
	for i := 0; i < 2000; i++ {
		ls.Longs = append(ls.Longs, r.Int63()-(1<<62))
		ds.Doubles = append(ds.Doubles, (r.Float64()-0.5)*1e9)
	}
	src := &memSource{data: map[string]*pql.Vec{"l": ls, "d": ds}}
	gotL := mustRun(t, call("abs", col("l")), src, len(ls.Longs))
	for i, l := range ls.Longs {
		want := l
		if want < 0 {
			want = -want // MinInt64 has no positive counterpart: the int64 wrap
		}
		if gotL.Longs[i] != want {
			t.Fatalf("abs(%d) = %d, want %d", l, gotL.Longs[i], want)
		}
	}
	gotD := mustRun(t, call("abs", col("d")), src, len(ds.Doubles))
	for i, d := range ds.Doubles {
		if want := math.Float64frombits(math.Float64bits(d) &^ (1 << 63)); math.Float64bits(gotD.Doubles[i]) != math.Float64bits(want) {
			t.Fatalf("abs(%g) = %g, want %g", d, gotD.Doubles[i], want)
		}
	}
}

func TestOracleLowerUpper(t *testing.T) {
	in := strs("", "a", "ABC", "MiXeD", "already lower", "ÜBER-straße", "日本語", "x'y''z", "İı K ſ")
	src := &memSource{data: map[string]*pql.Vec{"s": in}}
	lo := mustRun(t, call("lower", col("s")), src, len(in.Strings))
	up := mustRun(t, call("upper", col("s")), src, len(in.Strings))
	for i, s := range in.Strings {
		// Oracle: rune by rune through the unicode case tables.
		var wantLo, wantUp strings.Builder
		for _, r := range s {
			wantLo.WriteRune(unicode.ToLower(r))
			wantUp.WriteRune(unicode.ToUpper(r))
		}
		if lo.Strings[i] != wantLo.String() || up.Strings[i] != wantUp.String() {
			t.Fatalf("%q: lower %q, upper %q; want %q, %q", s, lo.Strings[i], up.Strings[i], wantLo.String(), wantUp.String())
		}
	}
}

func TestOracleConcat(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	pool := []any{"a", "", "xy", int64(0), int64(-42), int64(123456789), "it's"}
	const rows = 300
	// Two to five columns, each of one kind per trial.
	for trial := 0; trial < 20; trial++ {
		src := &memSource{data: map[string]*pql.Vec{}}
		n := 2 + r.Intn(4)
		args := make([]pql.Expr, n)
		for j := range args {
			name := "c" + strconv.Itoa(j)
			args[j] = col(name)
			v := &pql.Vec{Kind: pql.String}
			if r.Intn(2) == 0 {
				v.Kind = pql.Long
			}
			for len(v.Longs)+len(v.Strings) < rows {
				x := pool[r.Intn(len(pool))]
				if s, ok := x.(string); ok && v.Kind == pql.String {
					v.Strings = append(v.Strings, s)
				} else if l, ok := x.(int64); ok && v.Kind == pql.Long {
					v.Longs = append(v.Longs, l)
				}
			}
			src.data[name] = v
		}
		got := mustRun(t, pql.Call{Name: "concat", Args: args}, src, rows)
		for i := 0; i < rows; i++ {
			var want strings.Builder
			for j := 0; j < n; j++ {
				v := src.data["c"+strconv.Itoa(j)]
				if v.Kind == pql.String {
					want.WriteString(v.Strings[i])
				} else {
					want.WriteString(strconv.FormatInt(v.Longs[i], 10))
				}
			}
			if got.Strings[i] != want.String() {
				t.Fatalf("concat row %d: got %q want %q", i, got.Strings[i], want.String())
			}
		}
	}
}

func TestOracleArith(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	a, b := longs(), longs()
	for i := 0; i < 2000; i++ {
		a.Longs = append(a.Longs, r.Int63()-(1<<62))
		b.Longs = append(b.Longs, r.Int63()-(1<<62))
	}
	src := &memSource{data: map[string]*pql.Vec{"a": a, "b": b}}
	n := len(a.Longs)
	add := mustRun(t, pql.Arith{Op: pql.OpAdd, L: col("a"), R: col("b")}, src, n).Longs
	sub := mustRun(t, pql.Arith{Op: pql.OpSub, L: col("a"), R: col("b")}, src, n).Longs
	mul := mustRun(t, pql.Arith{Op: pql.OpMul, L: col("a"), R: col("b")}, src, n).Longs
	// Division always runs in float64, even long/long.
	div := mustRun(t, pql.Arith{Op: pql.OpDiv, L: col("a"), R: col("b")}, src, n).Doubles
	// A long subtree computes (and wraps) in int64 before it promotes.
	mixed := mustRun(t, pql.Arith{Op: pql.OpAdd, L: pql.Arith{Op: pql.OpMul, L: col("a"), R: col("b")}, R: lit(0.5)}, src, n).Doubles
	for i := range a.Longs {
		x, y := a.Longs[i], b.Longs[i]
		if add[i] != x+y || sub[i] != x-y || mul[i] != x*y {
			t.Fatalf("%d, %d: + %d, - %d, * %d", x, y, add[i], sub[i], mul[i])
		}
		if div[i] != float64(x)/float64(y) {
			t.Fatalf("%d / %d = %g", x, y, div[i])
		}
		if mixed[i] != float64(x*y)+0.5 {
			t.Fatalf("%d * %d + 0.5 = %g", x, y, mixed[i])
		}
	}
}

// --- Limits and which failure a block reports.

// chainExpr builds clicks + 1 + 1 + ... with n additions: 2n+1 nodes.
func chainExpr(n int) pql.Expr {
	e := col("clicks")
	for i := 0; i < n; i++ {
		e = pql.Arith{Op: pql.OpAdd, L: e, R: lit(int64(1))}
	}
	return e
}

// TestDefaultLimitsApplied: the kernels apply the limits with no
// configuration, exactly at their bounds.
func TestDefaultLimitsApplied(t *testing.T) {
	src := &memSource{data: map[string]*pql.Vec{"clicks": longs(5, 6), "s": strs(strings.Repeat("x", maxStringLen-1))}}
	if v := mustRun(t, chainExpr((maxNodes-1)/2), src, 2); v.Longs[1] != 6+(maxNodes-1)/2 {
		t.Fatalf("a %d-node kernel: got %d", maxNodes-1, v.Longs[1])
	}
	if _, _, err := run(t, chainExpr(maxNodes/2), src, 2); !errors.Is(err, ErrLimit) {
		t.Fatalf("a %d-node kernel: got %v, want ErrLimit", maxNodes+1, err)
	}
	if v := mustRun(t, call("concat", col("s"), lit("y")), src, 1); len(v.Strings[0]) != maxStringLen {
		t.Fatalf("a %d-byte concat: got %d bytes", maxStringLen, len(v.Strings[0]))
	}
	if _, _, err := run(t, call("concat", col("s"), lit("yz")), src, 1); !errors.Is(err, ErrLimit) {
		t.Fatalf("a %d-byte concat: got %v, want ErrLimit", maxStringLen+1, err)
	}
}

func TestLimitMaxSteps(t *testing.T) {
	src := &memSource{data: map[string]*pql.Vec{"clicks": longs(5, 6, 7)}}
	k, err := Compile(chainExpr(maxNodes/2), src.kindOf)
	if err != nil {
		t.Fatal(err)
	}
	src.cols = k.Cols
	// The cap is a node count: every row would visit every node, so a
	// non-empty block fails at its first row, with the step limit's text,
	// and an empty one has no row to fail.
	_, row, err := k.Eval(src, []int{1, 2})
	if !errors.Is(err, ErrLimit) || row != 0 || err.Error() != "expr: resource limit exceeded: more than 65536 evaluation steps" {
		t.Fatalf("over the node cap: row %d, %v", row, err)
	}
	if _, _, err := k.Eval(src, nil); err != nil {
		t.Fatalf("an empty block failed: %v", err)
	}
}

func TestLimitMaxStringLen(t *testing.T) {
	long := strings.Repeat("x", maxStringLen)
	src := &memSource{data: map[string]*pql.Vec{
		"s": strs("a", "b", long, "c", long),
		"w": longs(1, 1, 1, 0, 0),
	}}
	// upper() of an oversized input is a constructed string too.
	if _, row, err := run(t, call("upper", call("concat", col("s"), lit("!"))), src, 5); !errors.Is(err, ErrLimit) || row != 2 {
		t.Fatalf("oversized concat: row %d, %v", row, err)
	}
	// The lowest failing row wins, whichever node fails in it: row 2's
	// string limit beats row 3's zero width, though timeBucket comes first.
	e := call("concat", call("timeBucket", lit(int64(7)), col("w")), col("s"), col("s"))
	_, row, err := run(t, e, src, 5)
	if row != 2 || err.Error() != "expr: resource limit exceeded: string of 8193 bytes exceeds 4096" {
		t.Fatalf("got row %d, %v", row, err)
	}
	// Within one row, the first node to fail in evaluation order: row 1
	// fails both, and timeBucket is evaluated before the concat around it.
	_, row, err = run(t, e, &memSource{data: map[string]*pql.Vec{"s": strs("a", long), "w": longs(1, 0)}}, 2)
	if row != 1 || err.Error() != "timeBucket: width must be a positive integer" {
		t.Fatalf("got row %d, %v", row, err)
	}
}

// --- Compile accepts every type-correct expression; a block equals its rows.

// randExpr generates type-correct expressions of every builtin over long,
// double and string columns, with failing shapes among them (a width read
// from a column that holds 0).
func randExpr(r *rand.Rand, depth int, want pql.Kind) pql.Expr {
	if depth <= 0 || r.Intn(5) == 0 {
		switch want {
		case pql.String:
			return []pql.Expr{col("s1"), col("s2"), lit("Ab")}[r.Intn(3)]
		case pql.Long:
			return []pql.Expr{col("l1"), col("l2"), lit(int64(r.Intn(100) - 50))}[r.Intn(3)]
		}
		return []pql.Expr{col("d1"), lit((r.Float64() - 0.5) * 20)}[r.Intn(2)]
	}
	switch want {
	case pql.String:
		if r.Intn(2) == 0 {
			return call([]string{"lower", "upper"}[r.Intn(2)], randExpr(r, depth-1, pql.String))
		}
		return call("concat", randExpr(r, depth-1, pql.String), randExpr(r, depth-1, pql.Long))
	case pql.Long:
		switch r.Intn(3) {
		case 0:
			return call("abs", randExpr(r, depth-1, pql.Long))
		case 1:
			// A width from l2, which holds widths ≤ 0, fails some rows.
			width := lit(int64(1 + r.Intn(9)))
			if r.Intn(4) == 0 {
				width = col("l2")
			}
			return call("timeBucket", randExpr(r, depth-1, pql.Long), width)
		}
		ops := []pql.ArithOp{pql.OpAdd, pql.OpSub, pql.OpMul}
		return pql.Arith{Op: ops[r.Intn(3)], L: randExpr(r, depth-1, pql.Long), R: randExpr(r, depth-1, pql.Long)}
	}
	if r.Intn(3) == 0 {
		return call("abs", randExpr(r, depth-1, pql.Double))
	}
	// A double: a division, or a double on at least one side.
	op, lk, rk := []pql.ArithOp{pql.OpAdd, pql.OpSub, pql.OpMul, pql.OpDiv}[r.Intn(4)], pql.Long, pql.Long
	switch r.Intn(3) {
	case 0:
		lk = pql.Double
	case 1:
		rk = pql.Double
	default:
		if op != pql.OpDiv {
			lk, rk = pql.Double, pql.Double
		}
	}
	return pql.Arith{Op: op, L: randExpr(r, depth-1, lk), R: randExpr(r, depth-1, rk)}
}

func randSource(r *rand.Rand, rows int) *memSource {
	src := &memSource{data: map[string]*pql.Vec{"l1": longs(), "l2": longs(), "d1": doubles(), "s1": strs(), "s2": strs()}}
	for i := 0; i < rows; i++ {
		src.data["l1"].Longs = append(src.data["l1"].Longs, r.Int63n(1<<33)-(1<<32))
		src.data["l2"].Longs = append(src.data["l2"].Longs, int64(r.Intn(2000)-1000))
		src.data["d1"].Doubles = append(src.data["d1"].Doubles, (r.Float64()-0.5)*1e6)
		src.data["s1"].Strings = append(src.data["s1"].Strings, strings.Repeat("xY", r.Intn(4)))
		src.data["s2"].Strings = append(src.data["s2"].Strings, strconv.Itoa(r.Intn(50)))
	}
	src.data["d1"].Doubles[7] = 0 // division by a column value hits /0
	return src
}

// TestCompileEvalEquivalence: a kernel over a block computes, row by row,
// bit for bit what it computes over each row as a block of one, and fails
// at the block's lowest failing row with that row's error.
func TestCompileEvalEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	const rows = 257 // odd size: not a multiple of any block width
	src := randSource(r, rows)
	failed := 0
	for iter := 0; iter < 400; iter++ {
		want := []pql.Kind{pql.Long, pql.Double, pql.String}[iter%3]
		e := randExpr(r, 1+r.Intn(4), want)
		k, err := Compile(e, src.kindOf)
		if err != nil || k.Kind != want {
			t.Fatalf("iter %d: %s: kind %v, %v; want %s", iter, e, k, err, want)
		}
		src.cols = k.Cols
		if _, _, err := agreeWithRows(t, e.String(), k, src, rows); err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no expression failed: the error order went unchecked")
	}
}

// agreeWithRows evaluates k over rows [0, n) of src as one block and each
// row as a block of one, and requires them to agree: the same value bit for
// bit on every row before the block's failing row, and that row's error
// there. It returns the block's values, boxed, and its failure.
func agreeWithRows(t *testing.T, label string, k *Kernel, src *memSource, n int) ([]any, int, error) {
	t.Helper()
	docs := make([]int, n)
	for i := range docs {
		docs[i] = i
	}
	block, brow, berr := k.Eval(src, docs)
	got := make([]any, n)
	for i := range got {
		got[i] = block.Value(i)
	}
	for i := range docs {
		one, _, err := k.Eval(src, docs[i:i+1])
		if berr != nil && i == brow {
			if err == nil || err.Error() != berr.Error() {
				t.Fatalf("%s: the block fails row %d with %v, the row alone with %v", label, i, berr, err)
			}
			break
		}
		if err != nil {
			t.Fatalf("%s: row %d fails alone (%v), not in the block (%v at %d)", label, i, err, berr, brow)
		}
		if !sameValue(got[i], one.Value(0)) {
			t.Fatalf("%s: row %d: block %v, row %v", label, i, got[i], one.Value(0))
		}
	}
	return got, brow, berr
}

// sameValue compares two values bit for bit: a NaN equals a NaN of the
// same bits, and -0 differs from +0.
func sameValue(a, b any) bool {
	if x, ok := a.(float64); ok {
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	}
	return a == b
}

func TestCompileAccepts(t *testing.T) {
	src := &memSource{data: map[string]*pql.Vec{
		"clicks": longs(3, 4), "country": strs("us", "de"), "flag": {Kind: pql.Bool, Bools: []bool{true, false}},
	}}
	accept := []struct {
		e    pql.Expr
		want string
	}{
		{col("country"), "[us de]"},
		{call("upper", col("country")), "[US DE]"},
		{call("timeBucket", col("clicks"), col("clicks")), "[3 4]"},
		{call("concat", col("country"), lit("-"), col("clicks")), "[us-3 de-4]"},
		{col("flag"), "[true false]"},
		{lit(true), "[true true]"},
		{pql.Arith{Op: pql.OpDiv, L: col("clicks"), R: lit(int64(2))}, "[1.5 2]"},
	}
	for _, c := range accept {
		if got := formatVec(mustRun(t, c.e, src, 2)); got != c.want {
			t.Errorf("%s = %s, want %s", c.e, got, c.want)
		}
	}
	// A width of 0 compiles: it fails per row, at run time.
	if _, row, err := run(t, call("timeBucket", col("clicks"), lit(int64(0))), src, 2); err == nil || row != 0 {
		t.Fatalf("timeBucket(clicks, 0): row %d, %v", row, err)
	}
	reject := []struct {
		e    pql.Expr
		want string
	}{
		{col("nosuch"), `expr: unknown column "nosuch"`},
		{pql.Arith{Op: pql.OpAdd, L: col("country"), R: lit(int64(1))}, "expr: cannot apply + to string and long"},
		{call("timeBucket", col("clicks"), lit(2.5)), "expr: timeBucket takes (long, long), got (long, double)"},
		{call("abs", col("country")), "expr: abs takes a numeric argument, got string"},
		{call("lower", col("clicks")), "expr: lower takes a string argument, got long"},
		{call("concat", col("country"), col("flag")), "expr: concat argument 2 must be string or long, got boolean"},
		{call("now"), `expr: unknown function "now"`},
		{call("ABS", lit(int64(1))), `expr: unknown function "ABS"`},
		{call("abs"), "expr: abs takes 1 to 1 arguments, got 0"},
		{pql.Arith{Op: "%", L: col("clicks"), R: col("clicks")}, `expr: unknown operator "%"`},
		{lit(int32(1)), "expr: unsupported literal type int32"},
		{nil, "expr: unsupported node <nil>"},
	}
	for _, c := range reject {
		if _, err := Compile(c.e, src.kindOf); err == nil || err.Error() != c.want {
			t.Errorf("Compile(%v) = %v, want %s", c.e, err, c.want)
		}
	}
}

func formatVec(v *pql.Vec) string {
	parts := make([]string, v.Len())
	for i := range parts {
		switch x := v.Value(i).(type) {
		case string:
			parts[i] = x
		case int64:
			parts[i] = strconv.FormatInt(x, 10)
		case float64:
			parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
		case bool:
			parts[i] = strconv.FormatBool(x)
		}
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func TestCompareKinds(t *testing.T) {
	cases := []struct {
		op     pql.CompareOp
		lk, rk pql.Kind
		want   string
	}{
		{pql.OpLt, pql.Long, pql.Double, ""},
		{pql.OpGte, pql.String, pql.String, ""},
		{pql.OpNeq, pql.Bool, pql.Bool, ""},
		{pql.OpLt, pql.Bool, pql.Bool, "expr: booleans only compare with = and <>"},
		{pql.OpEq, pql.String, pql.Long, "expr: cannot compare string with long"},
	}
	for _, c := range cases {
		err := CompareKinds(c.op, c.lk, c.rk)
		if got := ""; err != nil {
			got = err.Error()
			if got != c.want {
				t.Errorf("%s %s %s: %q, want %q", c.lk, c.op, c.rk, got, c.want)
			}
		} else if c.want != "" {
			t.Errorf("%s %s %s: accepted, want %q", c.lk, c.op, c.rk, c.want)
		}
	}
}

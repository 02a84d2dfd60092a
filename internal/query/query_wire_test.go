package query

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pinot/internal/pql"
	"pinot/internal/wire"
)

// parserCorpusText returns the queries of the parser's test corpus.
func parserCorpusText(t testing.TB) []string {
	t.Helper()
	data, err := os.ReadFile("../pql/testdata/queries.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return out
}

// parserCorpus returns the queries of the parser's test corpus, parsed.
func parserCorpus(t testing.TB) []*pql.Query {
	t.Helper()
	var out []*pql.Query
	for _, text := range parserCorpusText(t) {
		q, err := pql.Parse(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		out = append(out, q)
	}
	return out
}

func encodeQuery(t testing.TB, q *pql.Query) []byte {
	t.Helper()
	e := wire.GetEncoder()
	defer e.Release()
	AppendQuery(e, q)
	if err := e.Err(); err != nil {
		t.Fatalf("%v: %v", q, err)
	}
	return append([]byte(nil), e.Bytes()...)
}

func decodeQuery(b []byte) (*pql.Query, error) {
	d := wire.NewDecoder(b)
	q := ReadQuery(&d)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return q, nil
}

// TestQueryRoundTrip carries every query of the parser's corpus, and both
// halves of its hybrid rewrite, through the codec: each arrives as it was
// sent and as Parse builds it from its rendering (SentAsParsed).
func TestQueryRoundTrip(t *testing.T) {
	for _, text := range parserCorpusText(t) {
		SentAsParsed(t, text)
	}
}

// TestReadQueryRefuses holds the decoder to each refusal of its contract:
// the bytes of a tree no broker sends fail the decode.
func TestReadQueryRefuses(t *testing.T) {
	parse := func(s string) *pql.Query {
		q, err := pql.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	col := func(n string) pql.Expr { return pql.ColumnRef{Name: n} }
	// Broken trees the encoder writes as they are.
	trees := map[string]func(q *pql.Query){
		"a list cell where a literal belongs": func(q *pql.Query) {
			q.Filter = pql.Comparison{Column: "a", Op: pql.OpEq, Value: []any{int64(1)}}
		},
		"an unknown comparison operator": func(q *pql.Query) { q.Filter = pql.Comparison{Column: "a", Op: "=~", Value: int64(1)} },
		"an unknown arithmetic operator": func(q *pql.Query) {
			q.Filter = pql.ExprCompare{LHS: pql.Arith{Op: "%", L: col("a"), R: col("b")}, Op: pql.OpEq, RHS: col("c")}
		},
		"an unknown aggregation": func(q *pql.Query) { q.Select[0].Func = "MEDIAN" },
		"an unknown builtin": func(q *pql.Query) {
			q.GroupBy, q.GroupByExprs = []string{"sqrt(a)"}, []pql.Expr{pql.Call{Name: "sqrt", Args: []pql.Expr{col("a")}}}
		},
		"a builtin's wrong arity": func(q *pql.Query) {
			q.GroupBy, q.GroupByExprs = []string{"abs(a, b)"}, []pql.Expr{pql.Call{Name: "abs", Args: []pql.Expr{col("a"), col("b")}}}
		},
		"a column not its arg": func(q *pql.Query) {
			q.Select[0] = pql.Expression{IsAgg: true, Func: pql.Sum, Column: "b", Arg: pql.Call{Name: "abs", Args: []pql.Expr{col("a")}}}
		},
		"a negative TOP":        func(q *pql.Query) { q.Top = -1 },
		"a negative OFFSET":     func(q *pql.Query) { q.Select, q.Offset = []pql.Expression{{Column: "a"}}, -1 },
		"a negative LIMIT":      func(q *pql.Query) { q.Select, q.Limit = []pql.Expression{{Column: "a"}}, -1 },
		"what validate rejects": func(q *pql.Query) { q.Select[0].Func = pql.Sum }, // SUM(*)
		"an expression not folded": func(q *pql.Query) {
			q.Filter = pql.ExprCompare{LHS: pql.Arith{Op: pql.OpAdd, L: pql.Literal{Value: int64(1)}, R: pql.Literal{Value: int64(2)}}, Op: pql.OpEq, RHS: col("c")}
		},
	}
	for name, breakIt := range trees {
		q := parse("SELECT count(*) FROM T")
		breakIt(q)
		if _, err := decodeQuery(encodeQuery(t, q)); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}

	// A tree Parse built, with one rule broken at a time.
	const base = "SELECT sum(a * 2), count(*) FROM T WHERE a = 1 AND (b IN (1, 2) OR NOT c BETWEEN 1 AND 2) AND abs(d) > e GROUP BY f, timeBucket(g, 7) TOP 3"
	if _, err := decodeQuery(encodeQuery(t, parse(base))); err != nil {
		t.Fatalf("%q does not decode: %v", base, err)
	}
	lit := func(v any) pql.Expr { return pql.Literal{Value: v} }
	child := func(q *pql.Query, i int) *pql.Predicate { return &q.Filter.(pql.And).Children[i] }
	for name, breakIt := range map[string]func(q *pql.Query){
		"table not an identifier":     func(q *pql.Query) { q.Table = "a b" },
		"empty select":                func(q *pql.Query) { q.Select = nil },
		"unknown aggregation":         func(q *pql.Query) { q.Select[1].Func = "MEDIAN" },
		"lower-case aggregation":      func(q *pql.Query) { q.Select[1].Func = "count" },
		"column not matching its arg": func(q *pql.Query) { q.Select[0].Column = "(a * 3)" },
		"bare column as an arg":       func(q *pql.Query) { q.Select[0].Arg = col("a") },
		"arg not canonical": func(q *pql.Query) {
			q.Select[0].Arg, q.Select[0].Column = pql.Arith{Op: pql.OpMul, L: lit(int64(2)), R: lit(int64(3))}, "(2 * 3)"
		},
		"plain item with a function": func(q *pql.Query) { q.Select[1] = pql.Expression{Func: pql.Count, Column: "f"} },
		"plain item 'true'":          func(q *pql.Query) { q.Select = []pql.Expression{{Column: "true"}} },
		"unknown comparison": func(q *pql.Query) {
			*child(q, 0) = pql.Comparison{Column: "a", Op: "==", Value: int64(1)}
		},
		"list where a literal goes": func(q *pql.Query) {
			*child(q, 0) = pql.Comparison{Column: "a", Op: pql.OpEq, Value: []any{int64(1)}}
		},
		"NaN literal": func(q *pql.Query) {
			*child(q, 0) = pql.Comparison{Column: "a", Op: pql.OpEq, Value: math.NaN()}
		},
		"empty IN":      func(q *pql.Query) { *child(q, 0) = pql.In{Column: "a"} },
		"one-child AND": func(q *pql.Query) { q.Filter = pql.And{Children: q.Filter.(pql.And).Children[:1]} },
		"nil NOT":       func(q *pql.Query) { *child(q, 0) = pql.Not{} },
		"column against a constant": func(q *pql.Query) {
			*child(q, 0) = pql.ExprCompare{LHS: col("a"), Op: pql.OpEq, RHS: lit(int64(1))}
		},
		"unknown arithmetic": func(q *pql.Query) {
			*child(q, 2) = pql.ExprCompare{LHS: pql.Arith{Op: "%", L: col("d"), R: col("e")}, Op: pql.OpGt, RHS: col("e")}
		},
		"unknown builtin": func(q *pql.Query) {
			*child(q, 2) = pql.ExprCompare{LHS: pql.Call{Name: "sqrt", Args: []pql.Expr{col("d")}}, Op: pql.OpGt, RHS: col("e")}
		},
		"builtin arity": func(q *pql.Query) {
			*child(q, 2) = pql.ExprCompare{LHS: pql.Call{Name: "abs", Args: []pql.Expr{col("d"), col("e")}}, Op: pql.OpGt, RHS: col("e")}
		},
		"builtin spelling": func(q *pql.Query) {
			*child(q, 2) = pql.ExprCompare{LHS: pql.Call{Name: "ABS", Args: []pql.Expr{col("d")}}, Op: pql.OpGt, RHS: col("e")}
		},
		"column reference 'a b'": func(q *pql.Query) {
			*child(q, 2) = pql.ExprCompare{LHS: pql.Call{Name: "abs", Args: []pql.Expr{col("a b")}}, Op: pql.OpGt, RHS: col("e")}
		},
		"group item not rendered":    func(q *pql.Query) { q.GroupBy[1] = "timeBucket(g, 8)" },
		"group exprs all nil":        func(q *pql.Query) { q.GroupByExprs = []pql.Expr{nil, nil} },
		"group exprs short":          func(q *pql.Query) { q.GroupByExprs = q.GroupByExprs[1:] },
		"group column '1'":           func(q *pql.Query) { q.GroupBy[0] = "1" },
		"negative TOP":               func(q *pql.Query) { q.Top = -1 },
		"LIMIT on an aggregation":    func(q *pql.Query) { q.Limit = 5 },
		"TOP without GROUP BY":       func(q *pql.Query) { q.GroupBy, q.GroupByExprs = nil, nil },
		"ORDER BY on an aggregation": func(q *pql.Query) { q.OrderBy = []pql.OrderSpec{{Column: "f"}} },
		"ORDER BY column '-'": func(q *pql.Query) {
			q.Select, q.GroupBy, q.GroupByExprs, q.Top, q.OrderBy = []pql.Expression{{Column: "f"}}, nil, nil, pql.DefaultTop, []pql.OrderSpec{{Column: "-"}}
		},
		"a level over the bound, not the rewrite": func(q *pql.Query) {
			q.Filter = pql.And{Children: []pql.Predicate{pql.Comparison{Column: "t", Op: pql.OpLt, Value: int64(1)}, deepNot(pql.MaxDepth)}}
		},
	} {
		q := parse(base)
		breakIt(q)
		if _, err := decodeQuery(encodeQuery(t, q)); err == nil {
			t.Errorf("%s: decoded %s", name, q)
		}
	}
	// The broker's hybrid rewrite of a query at the bound decodes.
	q := parse("SELECT count(*) FROM T WHERE " + strings.Repeat("NOT ", pql.MaxDepth-1) + "a = 1")
	if _, err := decodeQuery(encodeQuery(t, q.WithExtraFilter(pql.Comparison{Column: "t", Op: pql.OpGte, Value: int64(100)}))); err != nil {
		t.Errorf("the hybrid rewrite at the bound: %v", err)
	}

	// Bytes no encoder writes.
	head := func(e *wire.Encoder) {
		e.Str("T")
		e.Count(1)
		appendExpression(e, pql.Expression{IsAgg: true, Func: pql.Count, Column: "*"})
	}
	tail := func(e *wire.Encoder) {
		e.Count(0) // GROUP BY
		e.Count(0) // their expressions
		e.Count(0) // ORDER BY
		e.Varint(pql.DefaultTop)
		e.Varint(0)
		e.Varint(pql.DefaultLimit)
	}
	comparison := func(e *wire.Encoder) {
		e.Raw(predComparison)
		e.Str("a")
		e.Str("=")
		appendCell(e, int64(1), 0)
	}
	for name, filter := range map[string]func(e *wire.Encoder){
		"an unknown predicate tag": func(e *wire.Encoder) { e.Raw(99) },
		"an unknown expression tag": func(e *wire.Encoder) {
			e.Raw(predExprCompare, 99)
		},
		"nesting past wire.MaxNesting": func(e *wire.Encoder) {
			for i := 0; i < wire.MaxNesting; i++ {
				e.Raw(predNot)
			}
			comparison(e)
		},
		// An AND over a filter two levels over pql's bound and the hybrid
		// rewrite's comparison, which AppendQuery refuses to write.
		"two levels over the bound": func(e *wire.Encoder) {
			e.Raw(predAnd)
			e.Count(2)
			for i := 0; i < pql.MaxDepth; i++ {
				e.Raw(predNot)
			}
			comparison(e)
			comparison(e)
		},
	} {
		e := wire.GetEncoder()
		head(e)
		filter(e)
		tail(e)
		_, err := decodeQuery(e.Bytes())
		e.Release()
		if err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	// One NOT fewer is the deepest tree the layout carries; pql's bound, not
	// the layout, refuses it, since Parse stops a level short of it.
	e := wire.GetEncoder()
	defer e.Release()
	head(e)
	for i := 0; i < wire.MaxNesting-1; i++ {
		e.Raw(predNot)
	}
	comparison(e)
	tail(e)
	if _, err := decodeQuery(e.Bytes()); err == nil || !strings.Contains(err.Error(), "deeper than 31") {
		t.Errorf("a tree of wire.MaxNesting levels: %v, want refused by pql's bound", err)
	}
}

// deepNot is a filter of the given depth: NOTs over one comparison.
func deepNot(levels int) pql.Predicate {
	var p pql.Predicate = pql.Comparison{Column: "a", Op: pql.OpEq, Value: int64(1)}
	for i := 1; i < levels; i++ {
		p = pql.Not{Child: p}
	}
	return p
}

// checkDecodeQuery is the query decoder's contract over arbitrary bytes: no
// panic, allocation linear in the input, and what decodes is a query Parse
// builds from its rendering, or the broker's hybrid rewrite of one (the only
// tree a level deeper than Parse accepts).
func checkDecodeQuery(t *testing.T, data []byte) {
	t.Helper()
	var q *pql.Query
	var err error
	if got, limit := allocatedBy(func() { q, err = decodeQuery(data) }), uint64(queryAllocPerByte*len(data)+4096); got > limit {
		t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, limit)
	}
	if err != nil {
		return
	}
	want, err := pql.Parse(q.String())
	if err != nil {
		and, ok := q.Filter.(pql.And)
		if !ok || len(and.Children) != 2 {
			t.Fatalf("decoded %s, which does not parse: %v", q, err)
		}
		inner := *q
		inner.Filter = and.Children[0]
		if want, err = pql.Parse(inner.String()); err != nil {
			t.Fatalf("decoded %s, which neither parses nor is the rewrite of a query that does: %v", q, err)
		}
		want = want.WithExtraFilter(and.Children[1])
	}
	if !reflect.DeepEqual(q, want) {
		t.Fatalf("decoded a tree Parse does not build from its rendering %q:\n got %#v\nwant %#v", q, q, want)
	}
}

// queryAllocPerByte bounds what decoding a query allocates per payload byte.
// Each node is made once, boxed into its interface, and ordering an
// operand pair reads the two texts without building them, so the cost is a
// node's few words for its few bytes: TestDecodeQueryAllocation measures up
// to 10.8, on an IN list of short strings (a wide OR of comparisons 9.2).
const queryAllocPerByte = 20

// FuzzDecodeQuery searches for bytes that break checkDecodeQuery, seeded
// with the encoded queries of the parser's corpus, the FuzzParsePQL seeds.
func FuzzDecodeQuery(f *testing.F) {
	for _, q := range parserCorpus(f) {
		f.Add(encodeQuery(f, q))
	}
	f.Fuzz(checkDecodeQuery)
}

// TestDecodeQueryAllocation holds what a query costs to its length, on the
// deepest tree of each shape whose canonical order is decided level by level
// (a commutative chain of columns and of doubles, nested calls, alternating
// AND/OR groups) and on a chain under a comparison and wide lists of the
// smallest nodes. A byte of payload (decoding) or of text (Parse; String and
// CanonicalString, of what they render) costs each shape at most 1.3 times at
// the deepest form what it costs 8 levels deep, and CanonicalString allocates
// at most 3 times what String does.
func TestDecodeQueryAllocation(t *testing.T) {
	shapes := map[string]func(levels int) string{
		"+ chain": func(l int) string { return "SELECT sum(a" + strings.Repeat(" + a", l-1) + ") FROM T" },
		"double + chain": func(l int) string {
			return "SELECT count(*) FROM T WHERE a" + strings.Repeat(" + -1.2345678901234567e-300", l-2) + " > b"
		},
		"nested concat": func(l int) string {
			return "SELECT count(*) FROM T GROUP BY " + strings.Repeat("concat(a, ", l-1) + "a" + strings.Repeat(")", l-1)
		},
		"AND/OR groups": func(l int) string {
			var sb strings.Builder
			for i := 1; i < l; i++ {
				fmt.Fprintf(&sb, "a%d = %d %s (", i, i, [...]string{"OR", "AND"}[i%2])
			}
			return fmt.Sprintf("SELECT count(*) FROM T WHERE %sa%d = %d%s", sb.String(), l, l, strings.Repeat(")", l-1))
		},
	}
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		shallow, deep := queryCosts(t, shapes[name](8)), queryCosts(t, shapes[name](pql.MaxDepth))
		for i, cost := range [...]string{"ReadQuery", "Parse", "String", "CanonicalString"} {
			if deep[i] > 1.3*shallow[i] {
				t.Errorf("%s: %s allocates %.1f a byte %d levels deep, %.1f 8 levels deep", name, cost, deep[i], pql.MaxDepth, shallow[i])
			}
		}
	}
	for _, s := range []string{
		"SELECT count(*) FROM T WHERE a" + strings.Repeat(" + a", pql.MaxDepth-2) + " > b",
		"SELECT count(*) FROM T WHERE " + strings.Repeat("a = 1 OR ", 2000) + "a = 1",
		"SELECT count(*) FROM T WHERE a IN (" + strings.Repeat("1, ", 2000) + "1)",
		"SELECT count(*) FROM T WHERE a IN (" + strings.Repeat("'z', 'x', ", 1000) + "'y')",
	} {
		queryCosts(t, s)
	}
}

// queryCosts measures what decoding s's query allocates a payload byte, and
// Parse, String and CanonicalString a byte of the text they read or render;
// it holds CanonicalString to 3 times String, and the decode to
// checkDecodeQuery.
func queryCosts(t *testing.T, s string) [4]float64 {
	t.Helper()
	q, err := pql.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	data := encodeQuery(t, q)
	text, canon := q.String(), q.CanonicalString()
	bytes := [4]uint64{
		allocatedBy(func() {
			if _, err := decodeQuery(data); err != nil {
				t.Fatal(err)
			}
		}),
		allocatedBy(func() { pql.Parse(s) }),
		allocatedBy(func() { _ = q.String() }),
		allocatedBy(func() { _ = q.CanonicalString() }),
	}
	var perByte [4]float64
	for i, n := range [...]int{len(data), len(s), len(text), len(canon)} {
		perByte[i] = float64(bytes[i]) / float64(n)
	}
	t.Logf("%.40s...: %d payload bytes, %d text bytes; a byte, decode %.1f, Parse %.1f, String %.1f, CanonicalString %.1f",
		s, len(data), len(s), perByte[0], perByte[1], perByte[2], perByte[3])
	if bytes[3] > 3*bytes[2] {
		t.Errorf("%.40s...: CanonicalString allocates %d bytes, String %d", s, bytes[3], bytes[2])
	}
	checkDecodeQuery(t, data)
	return perByte
}

// TestFlatQueryAllocs pins what the benchmark's flat queries cost the broker
// (Parse, CanonicalString for the result-cache key) and a server (ReadQuery,
// aggCacheKey): no more allocations than before their trees were built
// through pql's constructors.
func TestFlatQueryAllocs(t *testing.T) {
	for _, c := range []struct {
		text                        string
		parse, read, canonical, agg float64 // the allocations each may make
	}{
		{"SELECT itemId, impressions FROM T WHERE memberId = 12345 LIMIT 200", 16, 7, 14, -1},
		{"SELECT sum(impressions), count(*) FROM T WHERE country = 'us' AND day BETWEEN 10 AND 17 GROUP BY browser TOP 10", 21, 13, 54, 50},
	} {
		q, err := pql.Parse(c.text)
		if err != nil {
			t.Fatal(err)
		}
		data := encodeQuery(t, q)
		for _, m := range []struct {
			name  string
			limit float64
			run   func()
		}{
			{"Parse", c.parse, func() { pql.Parse(c.text) }},
			{"ReadQuery", c.read, func() { decodeQuery(data) }},
			{"CanonicalString", c.canonical, func() { _ = q.CanonicalString() }},
			{"aggCacheKey", c.agg, func() { _ = aggCacheKey(q) }},
		} {
			if m.limit < 0 {
				continue
			}
			got := testing.AllocsPerRun(100, m.run)
			t.Logf("%.30s...: %s makes %.0f allocations", c.text, m.name, got)
			if got > m.limit {
				t.Errorf("%.30s...: %s makes %.0f allocations, more than %.0f", c.text, m.name, got, m.limit)
			}
		}
	}
}

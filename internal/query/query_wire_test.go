package query

import (
	"os"
	"reflect"
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
	// One NOT fewer is the deepest tree the layout carries; Validate, not
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
// The costliest part is pql.Validate's canonical check, which renders the
// operands of every commutative node: each node's text once per level above
// it, at most MaxDepth times, at up to 2.5 rendered bytes a payload byte and
// twice that for buffer growth. TestDecodeQueryAllocation measures up to 110.
const queryAllocPerByte = 256

// FuzzDecodeQuery searches for bytes that break checkDecodeQuery, seeded
// with the encoded queries of the parser's corpus, the FuzzParsePQL seeds.
func FuzzDecodeQuery(f *testing.F) {
	for _, q := range parserCorpus(f) {
		f.Add(encodeQuery(f, q))
	}
	f.Fuzz(checkDecodeQuery)
}

// TestDecodeQueryAllocation measures the costliest payloads a byte: a
// commutative chain as deep as Validate allows, whose canonical check renders
// each level's operands, and wide lists of the smallest nodes.
func TestDecodeQueryAllocation(t *testing.T) {
	chain := "a"
	for i := 1; i < pql.MaxDepth; i++ {
		chain += " + a"
	}
	floats := "a"
	for i := 2; i < pql.MaxDepth; i++ {
		floats += " + -1.2345678901234567e-300"
	}
	terms := strings.Repeat("a = 1 OR ", 2000) + "a = 1"
	values := strings.Repeat("1, ", 2000) + "1"
	for _, s := range []string{
		"SELECT sum(" + chain + ") FROM T",
		"SELECT count(*) FROM T WHERE " + strings.TrimSuffix(chain, " + a") + " > b",
		"SELECT count(*) FROM T WHERE " + floats + " > b",
		"SELECT count(*) FROM T GROUP BY " + strings.Repeat("concat(a, ", 20) + "a" + strings.Repeat(")", 20),
		"SELECT count(*) FROM T WHERE " + terms,
		"SELECT count(*) FROM T WHERE a IN (" + values + ")",
	} {
		q, err := pql.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		data := encodeQuery(t, q)
		got := allocatedBy(func() {
			if _, err := decodeQuery(data); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%.40s...: %d bytes, %d allocated, %.1f a byte", s, len(data), got, float64(got)/float64(len(data)))
		checkDecodeQuery(t, data)
	}
}

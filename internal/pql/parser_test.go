package pql

import (
	"reflect"
	"strings"
	"testing"
)

func mustParse(t *testing.T, s string) *Query {
	t.Helper()
	q, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return q
}

func TestParseSimpleAggregation(t *testing.T) {
	q := mustParse(t, "SELECT count(*) FROM myTable")
	if q.Table != "myTable" {
		t.Fatalf("table = %q", q.Table)
	}
	if len(q.Select) != 1 || !q.Select[0].IsAgg || q.Select[0].Func != Count || q.Select[0].Column != "*" {
		t.Fatalf("select = %+v", q.Select)
	}
	if q.Filter != nil || q.HasGroupBy() {
		t.Fatal("unexpected filter/group-by")
	}
	if !q.IsAggregation() {
		t.Fatal("IsAggregation = false")
	}
}

func TestParsePaperQuery(t *testing.T) {
	// The query from paper Figure 7.
	q := mustParse(t, "SELECT campaignId, sum(click) FROM TableA WHERE accountId = 121011 AND 'day' >= 15949 GROUP BY campaignId")
	if !q.IsAggregation() || !q.HasGroupBy() {
		t.Fatalf("paper query misparsed: %+v", q)
	}
	// The canonical form without the redundant projection:
	q2 := mustParse(t, "SELECT sum(click) FROM TableA WHERE accountId = 121011 AND 'day' >= 15949 GROUP BY campaignId")
	and, ok := q2.Filter.(And)
	if !ok || len(and.Children) != 2 {
		t.Fatalf("filter = %#v", q2.Filter)
	}
	c0 := and.Children[0].(Comparison)
	if c0.Column != "accountId" || c0.Op != OpEq || c0.Value.(int64) != 121011 {
		t.Fatalf("child 0 = %#v", c0)
	}
	c1 := and.Children[1].(Comparison)
	if c1.Column != "day" || c1.Op != OpGte || c1.Value.(int64) != 15949 {
		t.Fatalf("child 1 = %#v", c1)
	}
	if !reflect.DeepEqual(q2.GroupBy, []string{"campaignId"}) {
		t.Fatalf("group by = %v", q2.GroupBy)
	}
}

func TestParseMixedSelectList(t *testing.T) {
	// A plain column alongside aggregations is allowed when grouped.
	if _, err := Parse("SELECT campaignId, sum(click) FROM T GROUP BY campaignId"); err != nil {
		t.Fatalf("grouped projection rejected: %v", err)
	}
	// ... but rejected when it is not a GROUP BY column.
	if _, err := Parse("SELECT other, sum(click) FROM T GROUP BY campaignId"); err == nil {
		t.Fatal("ungrouped projection accepted")
	}
}

func TestParsePredicates(t *testing.T) {
	q := mustParse(t, `SELECT sum(impressions) FROM T WHERE browser = 'firefox' OR browser = 'safari'`)
	or, ok := q.Filter.(Or)
	if !ok || len(or.Children) != 2 {
		t.Fatalf("filter = %#v", q.Filter)
	}
	q = mustParse(t, `SELECT count(*) FROM T WHERE country IN ('us', 'de') AND day BETWEEN 10 AND 20 AND NOT platform = 'ios'`)
	and := q.Filter.(And)
	if len(and.Children) != 3 {
		t.Fatalf("and children = %d", len(and.Children))
	}
	in := and.Children[0].(In)
	if in.Negated || len(in.Values) != 2 || in.Values[0] != "us" {
		t.Fatalf("in = %#v", in)
	}
	btw := and.Children[1].(Between)
	if btw.Lo.(int64) != 10 || btw.Hi.(int64) != 20 {
		t.Fatalf("between = %#v", btw)
	}
	not := and.Children[2].(Not)
	if not.Child.(Comparison).Value != "ios" {
		t.Fatalf("not = %#v", not)
	}
	q = mustParse(t, `SELECT count(*) FROM T WHERE x NOT IN (1, 2, 3)`)
	in = q.Filter.(In)
	if !in.Negated || len(in.Values) != 3 {
		t.Fatalf("not in = %#v", in)
	}
}

func TestParsePrecedence(t *testing.T) {
	// AND binds tighter than OR.
	q := mustParse(t, "SELECT count(*) FROM T WHERE a = 1 OR b = 2 AND c = 3")
	or, ok := q.Filter.(Or)
	if !ok || len(or.Children) != 2 {
		t.Fatalf("filter = %#v", q.Filter)
	}
	if _, ok := or.Children[1].(And); !ok {
		t.Fatalf("right side should be AND: %#v", or.Children[1])
	}
	// Parentheses override.
	q = mustParse(t, "SELECT count(*) FROM T WHERE (a = 1 OR b = 2) AND c = 3")
	and, ok := q.Filter.(And)
	if !ok {
		t.Fatalf("filter = %#v", q.Filter)
	}
	if _, ok := and.Children[0].(Or); !ok {
		t.Fatalf("left side should be OR: %#v", and.Children[0])
	}
}

func TestParseSelection(t *testing.T) {
	q := mustParse(t, "SELECT itemId, score FROM feed WHERE memberId = 7 ORDER BY score DESC, itemId LIMIT 20, 50")
	if q.IsAggregation() {
		t.Fatal("selection marked aggregation")
	}
	if len(q.Select) != 2 || q.Select[0].Column != "itemId" {
		t.Fatalf("select = %+v", q.Select)
	}
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Descending || q.OrderBy[1].Descending {
		t.Fatalf("order by = %+v", q.OrderBy)
	}
	if q.Offset != 20 || q.Limit != 50 {
		t.Fatalf("limit = %d,%d", q.Offset, q.Limit)
	}
	q = mustParse(t, "SELECT * FROM feed LIMIT 5")
	if q.Select[0].Column != "*" || q.Limit != 5 || q.Offset != 0 {
		t.Fatalf("star select = %+v limit=%d", q.Select, q.Limit)
	}
}

func TestParseTop(t *testing.T) {
	q := mustParse(t, "SELECT sum(views) FROM T GROUP BY country TOP 25")
	if q.Top != 25 {
		t.Fatalf("top = %d", q.Top)
	}
	q = mustParse(t, "SELECT sum(views) FROM T GROUP BY country")
	if q.Top != DefaultTop {
		t.Fatalf("default top = %d", q.Top)
	}
}

func TestParseLiteralTypes(t *testing.T) {
	q := mustParse(t, "SELECT count(*) FROM T WHERE a = 1.5 AND b = -3 AND c = 'x''y' AND d = true AND e = 2e3")
	and := q.Filter.(And)
	if and.Children[0].(Comparison).Value.(float64) != 1.5 {
		t.Fatal("float literal")
	}
	if and.Children[1].(Comparison).Value.(int64) != -3 {
		t.Fatal("negative int literal")
	}
	if and.Children[2].(Comparison).Value.(string) != "x'y" {
		t.Fatalf("escaped string literal: %#v", and.Children[2])
	}
	if and.Children[3].(Comparison).Value.(bool) != true {
		t.Fatal("bool literal")
	}
	if and.Children[4].(Comparison).Value.(float64) != 2000 {
		t.Fatal("exponent literal")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM T",
		"SELECT count(* FROM T",
		"SELECT count(*) FROM",
		"SELECT count(*) FROM T WHERE",
		"SELECT count(*) FROM T WHERE a",
		"SELECT count(*) FROM T WHERE a =",
		"SELECT count(*) FROM T WHERE a = 'unterminated",
		"SELECT count(*) FROM T WHERE a IN ()",
		"SELECT count(*) FROM T WHERE a BETWEEN 1",
		"SELECT count(*) FROM T GROUP BY",
		"SELECT count(*) FROM T trailing garbage",
		"SELECT sum(*) FROM T",
		"SELECT a FROM T GROUP BY a",
		"SELECT a, count(*) FROM T",
		"SELECT count(*) FROM T ORDER BY x",
		"SELECT count(*) FROM T WHERE a ! b",
		"SELECT count(*) FROM T TOP -5",
		"SELECT *, a FROM T",
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", s)
		}
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	q := mustParse(t, "select SUM(x) from T where a = 1 group by b top 3")
	if q.Select[0].Func != Sum || q.Top != 3 || len(q.GroupBy) != 1 {
		t.Fatalf("case-insensitive parse failed: %+v", q)
	}
}

func TestStringRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT count(*) FROM T",
		"SELECT sum(click) FROM T WHERE accountId = 121011 AND day >= 15949 GROUP BY campaignId",
		"SELECT sum(impressions) FROM T WHERE (browser = 'firefox' OR browser = 'safari') GROUP BY country TOP 5",
		"SELECT itemId FROM feed WHERE memberId = 7 ORDER BY itemId DESC LIMIT 3, 9",
		"SELECT distinctcount(viewerId) FROM wvmp WHERE vieweeId = 42 AND region IN ('us', 'eu')",
		"SELECT count(*) FROM T WHERE NOT (a = 1 AND b BETWEEN 2 AND 3)",
	}
	for _, s := range queries {
		q1 := mustParse(t, s)
		q2 := mustParse(t, q1.String())
		if q1.String() != q2.String() {
			t.Errorf("round trip unstable:\n  in:  %s\n  1st: %s\n  2nd: %s", s, q1.String(), q2.String())
		}
	}
}

func TestWithExtraFilter(t *testing.T) {
	q := mustParse(t, "SELECT count(*) FROM T WHERE a = 1")
	extra := Comparison{Column: "day", Op: OpLt, Value: int64(100)}
	q2 := q.WithExtraFilter(extra)
	and, ok := q2.Filter.(And)
	if !ok || len(and.Children) != 2 {
		t.Fatalf("rewritten filter = %#v", q2.Filter)
	}
	// Original untouched.
	if _, ok := q.Filter.(Comparison); !ok {
		t.Fatal("original query mutated")
	}
	// No prior filter.
	q3 := mustParse(t, "SELECT count(*) FROM T")
	q4 := q3.WithExtraFilter(extra)
	if c, ok := q4.Filter.(Comparison); !ok || c.Column != "day" {
		t.Fatalf("filter = %#v", q4.Filter)
	}
}

// TestPredicateColumns pins PredicateColumns' output for every predicate
// node: each column once, in the order the tree first names it.
func TestPredicateColumns(t *testing.T) {
	col := func(name string) Expr { return ColumnRef{Name: name} }
	sum := func(l, r Expr) Expr { return Arith{Op: OpAdd, L: l, R: r} }
	for _, c := range []struct {
		name string
		p    Predicate
		want []string
	}{
		{"nil", nil, nil},
		{"comparison", Comparison{Column: "a", Op: OpEq, Value: int64(1)}, []string{"a"}},
		{"in", In{Column: "b", Values: []any{int64(1)}}, []string{"b"}},
		{"between", Between{Column: "c", Lo: int64(1), Hi: int64(2)}, []string{"c"}},
		{"expression both sides", ExprCompare{LHS: sum(col("y"), col("x")), Op: OpGt, RHS: sum(col("x"), col("z"))}, []string{"y", "x", "z"}},
		{"expression on literals", ExprCompare{LHS: Literal{Value: int64(1)}, Op: OpLt, RHS: Literal{Value: int64(2)}}, nil},
		{"and repeats", And{Children: []Predicate{
			Comparison{Column: "a", Op: OpEq, Value: int64(1)},
			Between{Column: "b", Lo: int64(1), Hi: int64(2)},
			Comparison{Column: "a", Op: OpGt, Value: int64(0)},
		}}, []string{"a", "b"}},
		{"nested and, or, not", mustParse(t, "SELECT count(*) FROM T WHERE a = 1 AND (b IN (1,2) OR NOT c BETWEEN 3 AND 4) AND a = 2").Filter, []string{"a", "b", "c"}},
		{"or over not over expression", Or{Children: []Predicate{
			Not{Child: ExprCompare{LHS: sum(col("d"), col("a")), Op: OpEq, RHS: Literal{Value: int64(3)}}},
			In{Column: "a", Values: []any{"x"}, Negated: true},
			Not{Child: Or{Children: []Predicate{Comparison{Column: "e", Op: OpNeq, Value: "v"}, Between{Column: "d", Lo: int64(0), Hi: int64(9)}}}},
		}}, []string{"d", "a", "e"}},
	} {
		if got := PredicateColumns(c.p); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: columns = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestQuotedColumnName(t *testing.T) {
	q := mustParse(t, "SELECT count(*) FROM T WHERE 'day' >= 15949")
	c := q.Filter.(Comparison)
	if c.Column != "day" {
		t.Fatalf("quoted column = %q", c.Column)
	}
}

func TestStringEscaping(t *testing.T) {
	q := mustParse(t, `SELECT count(*) FROM T WHERE a = 'it''s'`)
	s := q.Filter.String()
	if !strings.Contains(s, "'it''s'") {
		t.Fatalf("escaped render = %s", s)
	}
	q2 := mustParse(t, "SELECT count(*) FROM T WHERE "+s)
	if q2.Filter.(Comparison).Value != "it's" {
		t.Fatalf("re-parse of escaped literal = %#v", q2.Filter)
	}
}

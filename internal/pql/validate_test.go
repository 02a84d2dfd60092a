package pql

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestParseRefusesDeepNesting feeds the parser nesting a million levels
// deep, in each of the shapes that recurse: parentheses, NOTs and a chain of
// operators. Each is refused with the ParseError naming the bound, long
// before the stack or the tree it would build could grow with the input.
func TestParseRefusesDeepNesting(t *testing.T) {
	terms := make([]string, 100_000)
	for i := range terms {
		terms[i] = "a"
	}
	for name, in := range map[string]string{
		"parentheses": "SELECT count(*) FROM T WHERE " + strings.Repeat("(", 1_000_000) + "a = 1",
		"NOTs":        "SELECT count(*) FROM T WHERE " + strings.Repeat("NOT ", 1_000_000) + "a = 1",
		"a chain":     "SELECT sum(" + strings.Join(terms, " + ") + ") FROM T",
		"calls":       "SELECT sum(" + strings.Repeat("abs(", 1_000) + "a" + strings.Repeat(")", 1_000) + ") FROM T",
	} {
		start := time.Now()
		_, err := Parse(in)
		var pe *ParseError
		if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "deeper than 31 levels") {
			t.Errorf("%s: %v, want the nesting bound", name, err)
		}
		// A parse that followed the input down would take minutes; this
		// bound only catches that, not a slow machine.
		if d := time.Since(start); d > 10*time.Second {
			t.Errorf("%s: refused after %v", name, d)
		}
	}
}

// TestParseDepthBound accepts each shape at exactly MaxDepth levels, refuses
// it one level deeper, and holds what it accepts to the round trip through
// its rendering, whose parentheses count against the same bound.
func TestParseDepthBound(t *testing.T) {
	chain := func(n int) string { // n operators: n+1 levels
		return strings.TrimSuffix(strings.Repeat("a + ", n+1), " + ")
	}
	for name, at := range map[string]func(levels int) string{
		"NOTs": func(l int) string {
			return "SELECT count(*) FROM T WHERE " + strings.Repeat("NOT ", l-1) + "a = 1"
		},
		"groups": func(l int) string { // each group an OR over the next
			return "SELECT count(*) FROM T WHERE " + strings.Repeat("(b = 2 OR ", l-1) + "a = 1" + strings.Repeat(")", l-1)
		},
		"a chain": func(l int) string { return "SELECT sum(" + chain(l-1) + ") FROM T" },
		"a chain under a comparison": func(l int) string {
			return "SELECT count(*) FROM T WHERE " + chain(l-2) + " > 1"
		},
		"calls": func(l int) string {
			return "SELECT count(*) FROM T GROUP BY " + strings.Repeat("abs(", l-1) + "a" + strings.Repeat(")", l-1)
		},
	} {
		q, err := Parse(at(MaxDepth))
		if err != nil {
			t.Errorf("%s at the bound: %v", name, err)
			continue
		}
		if again, err := Parse(q.String()); err != nil || !reflect.DeepEqual(q, again) {
			t.Errorf("%s at the bound does not survive its rendering: %v", name, err)
		}
		if _, err := Parse(at(MaxDepth + 1)); err == nil || !strings.Contains(err.Error(), "deeper than") {
			t.Errorf("%s past the bound: %v", name, err)
		}
	}
	if _, err := ParseExpr(strings.Repeat("abs(", MaxDepth) + "a" + strings.Repeat(")", MaxDepth)); err == nil {
		t.Error("ParseExpr accepts an expression past the bound")
	}
}

// TestValidateRefusesWhatParseCannotBuild starts from a query Parse built
// and breaks one rule at a time.
func TestValidateRefusesWhatParseCannotBuild(t *testing.T) {
	const base = "SELECT sum(a * 2), count(*) FROM T WHERE a = 1 AND (b IN (1, 2) OR NOT c BETWEEN 1 AND 2) AND abs(d) > e GROUP BY f, timeBucket(g, 7) TOP 3"
	if err := Validate(mustParse(t, base)); err != nil {
		t.Fatalf("Validate refuses %q: %v", base, err)
	}
	col := func(n string) Expr { return ColumnRef{Name: n} }
	for name, breakIt := range map[string]func(q *Query){
		"table not an identifier":     func(q *Query) { q.Table = "a b" },
		"empty select":                func(q *Query) { q.Select = nil },
		"unknown aggregation":         func(q *Query) { q.Select[1].Func = "MEDIAN" },
		"lower-case aggregation":      func(q *Query) { q.Select[1].Func = "count" },
		"column not matching its arg": func(q *Query) { q.Select[0].Column = "(a * 3)" },
		"bare column as an arg":       func(q *Query) { q.Select[0].Arg = col("a") },
		"arg not canonical": func(q *Query) {
			q.Select[0].Arg, q.Select[0].Column = Arith{Op: OpMul, L: Literal{Value: int64(2)}, R: Literal{Value: int64(3)}}, "(2 * 3)"
		},
		"plain item with a function": func(q *Query) { q.Select[1] = Expression{Func: Count, Column: "f"} },
		"plain item 'true'":          func(q *Query) { q.Select = []Expression{{Column: "true"}} },
		"unknown comparison":         func(q *Query) { q.Filter.(And).Children[0] = Comparison{Column: "a", Op: "==", Value: int64(1)} },
		"list where a literal goes":  func(q *Query) { q.Filter.(And).Children[0] = Comparison{Column: "a", Op: OpEq, Value: []any{int64(1)}} },
		"NaN literal":                func(q *Query) { q.Filter.(And).Children[0] = Comparison{Column: "a", Op: OpEq, Value: math.NaN()} },
		"empty IN":                   func(q *Query) { q.Filter.(And).Children[0] = In{Column: "a"} },
		"one-child AND":              func(q *Query) { q.Filter = And{Children: q.Filter.(And).Children[:1]} },
		"nil NOT":                    func(q *Query) { q.Filter.(And).Children[0] = Not{} },
		"column against a constant": func(q *Query) {
			q.Filter.(And).Children[0] = ExprCompare{LHS: col("a"), Op: OpEq, RHS: Literal{Value: int64(1)}}
		},
		"unknown arithmetic": func(q *Query) {
			q.Filter.(And).Children[2] = ExprCompare{LHS: Arith{Op: "%", L: col("d"), R: col("e")}, Op: OpGt, RHS: col("e")}
		},
		"unknown builtin": func(q *Query) {
			q.Filter.(And).Children[2] = ExprCompare{LHS: Call{Name: "sqrt", Args: []Expr{col("d")}}, Op: OpGt, RHS: col("e")}
		},
		"builtin arity": func(q *Query) {
			q.Filter.(And).Children[2] = ExprCompare{LHS: Call{Name: "abs", Args: []Expr{col("d"), col("e")}}, Op: OpGt, RHS: col("e")}
		},
		"builtin spelling": func(q *Query) {
			q.Filter.(And).Children[2] = ExprCompare{LHS: Call{Name: "ABS", Args: []Expr{col("d")}}, Op: OpGt, RHS: col("e")}
		},
		"column reference 'a b'": func(q *Query) {
			q.Filter.(And).Children[2] = ExprCompare{LHS: Call{Name: "abs", Args: []Expr{col("a b")}}, Op: OpGt, RHS: col("e")}
		},
		"group item not rendered":    func(q *Query) { q.GroupBy[1] = "timeBucket(g, 8)" },
		"group exprs all nil":        func(q *Query) { q.GroupByExprs = []Expr{nil, nil} },
		"group exprs short":          func(q *Query) { q.GroupByExprs = q.GroupByExprs[1:] },
		"group column '1'":           func(q *Query) { q.GroupBy[0] = "1" },
		"negative TOP":               func(q *Query) { q.Top = -1 },
		"LIMIT on an aggregation":    func(q *Query) { q.Limit = 5 },
		"TOP without GROUP BY":       func(q *Query) { q.GroupBy, q.GroupByExprs = nil, nil },
		"ORDER BY on an aggregation": func(q *Query) { q.OrderBy = []OrderSpec{{Column: "f"}} },
		"ORDER BY column '-'": func(q *Query) {
			q.Select, q.GroupBy, q.GroupByExprs, q.Top, q.OrderBy = []Expression{{Column: "f"}}, nil, nil, DefaultTop, []OrderSpec{{Column: "-"}}
		},
		"two levels over the bound": func(q *Query) {
			q.Filter = And{Children: []Predicate{deepNot(MaxDepth + 1), Comparison{Column: "t", Op: OpLt, Value: int64(1)}}}
		},
		"a level over the bound, not the rewrite": func(q *Query) {
			q.Filter = And{Children: []Predicate{Comparison{Column: "t", Op: OpLt, Value: int64(1)}, deepNot(MaxDepth)}}
		},
	} {
		q := mustParse(t, base)
		breakIt(q)
		if err := Validate(q); err == nil {
			t.Errorf("%s: accepted %s", name, q)
		}
	}
	// The broker's hybrid rewrite of a query at the bound passes.
	q := mustParse(t, "SELECT count(*) FROM T WHERE "+strings.Repeat("NOT ", MaxDepth-1)+"a = 1")
	if err := Validate(q.WithExtraFilter(Comparison{Column: "t", Op: OpGte, Value: int64(100)})); err != nil {
		t.Errorf("the hybrid rewrite at the bound: %v", err)
	}
}

// deepNot is a filter of the given depth: NOTs over one comparison.
func deepNot(levels int) Predicate {
	var p Predicate = Comparison{Column: "a", Op: OpEq, Value: int64(1)}
	for i := 1; i < levels; i++ {
		p = Not{Child: p}
	}
	return p
}

// TestRenderingKeepsTheTree pins the renderings that changed so that text
// re-parses to the tree it came from: a predicate column named like a
// keyword or a boolean is quoted, and a string constant on the left of a
// comparison is parenthesized, not read back as a quoted column.
func TestRenderingKeepsTheTree(t *testing.T) {
	for in, want := range map[string]string{
		"SELECT count(*) FROM T WHERE 'not' = 1":               "SELECT count(*) FROM T WHERE 'not' = 1",
		"SELECT count(*) FROM T WHERE 'TRUE' IN (1)":           "SELECT count(*) FROM T WHERE 'TRUE' IN (1)",
		"SELECT count(*) FROM T WHERE concat('a', 'b') = x":    "SELECT count(*) FROM T WHERE ('ab') = x",
		"SELECT count(*) FROM T WHERE a = 1 TOP 5":             "SELECT count(*) FROM T WHERE a = 1",
		"SELECT sum(b) FROM T LIMIT 2, 3":                      "SELECT sum(b) FROM T",
		"SELECT count(*) FROM T WHERE concat('a', 'b') = 'ab'": "SELECT count(*) FROM T WHERE ('ab') = 'ab'",
	} {
		q := mustParse(t, in)
		if got := q.String(); got != want {
			t.Errorf("%q renders %q, want %q", in, got, want)
		}
		if again := mustParse(t, q.String()); !reflect.DeepEqual(q, again) {
			t.Errorf("%q: the rendering re-parses to %#v, not %#v", in, again, q)
		}
	}
	// The constant and the quoted column no longer share a cache key.
	if a, b := mustParse(t, "SELECT count(*) FROM T WHERE concat('a', 'b') = x"), mustParse(t, "SELECT count(*) FROM T WHERE 'ab' = x"); a.CanonicalString() == b.CanonicalString() {
		t.Errorf("a constant and a column share the canonical text %q", a.CanonicalString())
	}
}

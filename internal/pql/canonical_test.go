package pql

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestCanonicalCommutedPredicates is the satellite's headline case: commuted
// AND chains, shuffled IN lists, whitespace and keyword-case variants must
// all share one canonical rendering.
func TestCanonicalCommutedPredicates(t *testing.T) {
	groups := [][]string{
		{
			"SELECT count(*) FROM T WHERE a='x' AND b='y'",
			"SELECT count(*) FROM T WHERE b='y' AND a='x'",
			"select COUNT(*) from T where  a = 'x'  AND b = 'y'",
		},
		{
			"SELECT sum(clicks) FROM events WHERE country IN ('us','de','fr') AND day > 5",
			"SELECT sum(clicks) FROM events WHERE day > 5 AND country IN ('fr','us','de')",
			"select SUM(clicks) from events WHERE (day > 5) and country in ('de', 'fr', 'us')",
		},
		{
			"SELECT count(*) FROM T WHERE a = 1 AND (b = 2 AND c = 3)",
			"SELECT count(*) FROM T WHERE (a = 1 AND b = 2) AND c = 3",
			"SELECT count(*) FROM T WHERE c = 3 AND b = 2 AND a = 1",
		},
		{
			"SELECT count(*) FROM T WHERE a = 1 OR b = 2 OR c = 3",
			"SELECT count(*) FROM T WHERE c = 3 OR (b = 2 OR a = 1)",
		},
	}
	for gi, group := range groups {
		want := ""
		for qi, text := range group {
			q, err := Parse(text)
			if err != nil {
				t.Fatalf("group %d query %d: %v", gi, qi, err)
			}
			got := q.CanonicalString()
			if qi == 0 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("group %d: canonical keys diverge:\n  %q -> %q\n  %q -> %q",
					gi, group[0], want, text, got)
			}
		}
	}
}

// TestCanonicalDistinguishesSemantics guards against over-normalization:
// queries that mean different things must keep different keys.
func TestCanonicalDistinguishesSemantics(t *testing.T) {
	pairs := [][2]string{
		{"SELECT count(*) FROM T WHERE a = 1 AND b = 2", "SELECT count(*) FROM T WHERE a = 1 OR b = 2"},
		{"SELECT count(*) FROM T WHERE a IN (1, 2)", "SELECT count(*) FROM T WHERE a NOT IN (1, 2)"},
		{"SELECT count(*) FROM T WHERE a = 1", "SELECT count(*) FROM T WHERE NOT a = 1"},
		{"SELECT count(*) FROM T WHERE a BETWEEN 1 AND 2", "SELECT count(*) FROM T WHERE a BETWEEN 2 AND 1"},
		{"SELECT count(*) FROM T GROUP BY a TOP 3", "SELECT count(*) FROM T GROUP BY a TOP 4"},
		{"SELECT a, b FROM T LIMIT 5", "SELECT b, a FROM T LIMIT 5"},
	}
	for _, pair := range pairs {
		q1, err := Parse(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		q2, err := Parse(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if q1.CanonicalString() == q2.CanonicalString() {
			t.Errorf("distinct queries share a key: %q vs %q -> %q", pair[0], pair[1], q1.CanonicalString())
		}
	}
}

// randPredicate generates a random predicate tree of bounded depth over a
// small column/literal vocabulary.
func randPredicate(r *rand.Rand, depth int) Predicate {
	cols := []string{"a", "b", "country", "clicks", "day"}
	lits := []any{int64(1), int64(42), "us", "de", 3.5, true}
	ops := []CompareOp{OpEq, OpNeq, OpLt, OpLte, OpGt, OpGte}
	leaf := func() Predicate {
		switch r.Intn(3) {
		case 0:
			return Comparison{Column: cols[r.Intn(len(cols))], Op: ops[r.Intn(len(ops))], Value: lits[r.Intn(len(lits))]}
		case 1:
			n := 1 + r.Intn(3)
			vals := make([]any, n)
			for i := range vals {
				vals[i] = lits[r.Intn(len(lits))]
			}
			return In{Column: cols[r.Intn(len(cols))], Values: vals, Negated: r.Intn(2) == 0}
		default:
			return Between{Column: cols[r.Intn(len(cols))], Lo: int64(r.Intn(10)), Hi: int64(10 + r.Intn(10))}
		}
	}
	if depth <= 0 {
		return leaf()
	}
	switch r.Intn(4) {
	case 0:
		n := 2 + r.Intn(3)
		children := make([]Predicate, n)
		for i := range children {
			children[i] = randPredicate(r, depth-1)
		}
		return And{Children: children}
	case 1:
		n := 2 + r.Intn(3)
		children := make([]Predicate, n)
		for i := range children {
			children[i] = randPredicate(r, depth-1)
		}
		return Or{Children: children}
	case 2:
		return Not{Child: randPredicate(r, depth-1)}
	default:
		return leaf()
	}
}

func randQuery(r *rand.Rand) *Query {
	q := &Query{Table: "T", Top: DefaultTop, Limit: DefaultLimit}
	if r.Intn(2) == 0 {
		q.Select = []Expression{{IsAgg: true, Func: Count, Column: "*"}}
		if r.Intn(2) == 0 {
			q.Select = append(q.Select, Expression{IsAgg: true, Func: Sum, Column: "clicks"})
		}
		if r.Intn(2) == 0 {
			q.GroupBy = []string{"country"}
			q.Top = 1 + r.Intn(10)
		}
	} else {
		q.Select = []Expression{{Column: "a"}, {Column: "clicks"}}
		q.OrderBy = []OrderSpec{{Column: "clicks", Descending: r.Intn(2) == 0}}
		q.Limit = 1 + r.Intn(30)
		q.Offset = r.Intn(3)
	}
	if r.Intn(4) > 0 {
		q.Filter = randPredicate(r, 1+r.Intn(2))
	}
	return q
}

// TestCanonicalFixpointProperty is the property test demanded by the issue:
// for random queries, parse(CanonicalString) followed by another
// canonicalization must reproduce the same text — canonicalization is a
// fixpoint under parse→canonicalize→render.
func TestCanonicalFixpointProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		q := randQuery(r)
		canon := q.CanonicalString()
		reparsed, err := Parse(canon)
		if err != nil {
			t.Fatalf("iter %d: canonical text does not re-parse: %q: %v", i, canon, err)
		}
		if again := reparsed.CanonicalString(); again != canon {
			t.Fatalf("iter %d: canonicalization is not a fixpoint:\n  first:  %q\n  second: %q", i, canon, again)
		}
		// Canonicalizing twice in-memory is also stable.
		once := *q
		once.Filter = CanonicalPredicate(q.Filter)
		if twice := once.CanonicalString(); twice != canon {
			t.Fatalf("iter %d: double canonicalization diverges:\n  once:  %q\n  twice: %q", i, canon, twice)
		}
	}
}

// TestCanonicalPreservesSemantics spot-checks that canonicalization does not
// change what a predicate matches, by evaluating original and canonical
// trees over a small synthetic row set.
func TestCanonicalPreservesSemantics(t *testing.T) {
	type row map[string]any
	rows := []row{}
	for _, a := range []any{int64(1), int64(42), "us"} {
		for _, clicks := range []int64{0, 5, 15} {
			rows = append(rows, row{"a": a, "b": a, "country": "us", "clicks": clicks, "day": clicks})
		}
	}
	var eval func(p Predicate, rw row) bool
	cmp := func(v any, op CompareOp, lit any) bool {
		vs, ls := fmt.Sprint(v), fmt.Sprint(lit)
		switch op {
		case OpEq:
			return vs == ls
		case OpNeq:
			return vs != ls
		}
		vi, vok := v.(int64)
		li, lok := lit.(int64)
		if !vok || !lok {
			return false
		}
		switch op {
		case OpLt:
			return vi < li
		case OpLte:
			return vi <= li
		case OpGt:
			return vi > li
		case OpGte:
			return vi >= li
		}
		return false
	}
	eval = func(p Predicate, rw row) bool {
		switch n := p.(type) {
		case Comparison:
			return cmp(rw[n.Column], n.Op, n.Value)
		case In:
			found := false
			for _, v := range n.Values {
				if fmt.Sprint(rw[n.Column]) == fmt.Sprint(v) {
					found = true
					break
				}
			}
			return found != n.Negated
		case Between:
			vi, ok := rw[n.Column].(int64)
			lo, lok := n.Lo.(int64)
			hi, hok := n.Hi.(int64)
			return ok && lok && hok && vi >= lo && vi <= hi
		case And:
			for _, c := range n.Children {
				if !eval(c, rw) {
					return false
				}
			}
			return true
		case Or:
			for _, c := range n.Children {
				if eval(c, rw) {
					return true
				}
			}
			return false
		case Not:
			return !eval(n.Child, rw)
		}
		return false
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		p := randPredicate(r, 2)
		cp := CanonicalPredicate(p)
		for ri, rw := range rows {
			if got, want := eval(cp, rw), eval(p, rw); got != want {
				t.Fatalf("iter %d row %d: canonicalization changed semantics of %s -> %s", i, ri, p, cp)
			}
		}
	}
}

// TestCanonicalStringNormalizesSurface verifies keyword case and whitespace
// wash out through rendering.
func TestCanonicalStringNormalizesSurface(t *testing.T) {
	a, err := Parse("select   count(*)   from events  where country = 'us'")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("SELECT COUNT(*) FROM events WHERE country = 'us'")
	if err != nil {
		t.Fatal(err)
	}
	if a.CanonicalString() != b.CanonicalString() {
		t.Fatalf("surface variants diverge: %q vs %q", a.CanonicalString(), b.CanonicalString())
	}
	if strings.Contains(a.CanonicalString(), "  ") {
		t.Fatalf("canonical text has unnormalized whitespace: %q", a.CanonicalString())
	}
}

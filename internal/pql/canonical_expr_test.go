package pql

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randExpr generates a random expression AST of bounded depth over a small
// column/literal vocabulary. It is deliberately type-agnostic: the parser
// and canonicalizer accept any well-formed tree (typing happens at plan
// time), so the fixpoint property must hold for all of them.
func randExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 {
		switch r.Intn(3) {
		case 0:
			cols := []string{"a", "clicks", "day", "country"}
			return ColumnRef{Name: cols[r.Intn(len(cols))]}
		case 1:
			lits := []any{int64(0), int64(7), int64(-3), 2.5, int64(1000)}
			return Literal{Value: lits[r.Intn(len(lits))]}
		default:
			lits := []any{"us", "de", true, false}
			return Literal{Value: lits[r.Intn(len(lits))]}
		}
	}
	switch r.Intn(6) {
	case 0, 1:
		ops := []ArithOp{OpAdd, OpSub, OpMul, OpDiv}
		return Arith{Op: ops[r.Intn(len(ops))], L: randExpr(r, depth-1), R: randExpr(r, depth-1)}
	case 2:
		return Call{Name: "timeBucket", Args: []Expr{randExpr(r, depth-1), Literal{Value: int64(1 + r.Intn(100))}}}
	case 3:
		return Call{Name: "abs", Args: []Expr{randExpr(r, depth-1)}}
	case 4:
		fns := []string{"lower", "upper"}
		return Call{Name: fns[r.Intn(2)], Args: []Expr{randExpr(r, depth-1)}}
	default:
		n := 2 + r.Intn(2)
		args := make([]Expr, n)
		for i := range args {
			args[i] = randExpr(r, depth-1)
		}
		return Call{Name: "concat", Args: args}
	}
}

// TestCanonicalExprIdempotent: the parser makes every node canonical, and
// canonical form is a fixpoint — the text of a parsed expression parses to
// the very same tree (constant folding and commutative operand ordering both
// converge in one pass).
func TestCanonicalExprIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		e := randExpr(r, 1+r.Intn(3))
		once, err := ParseExpr(e.String())
		if err != nil {
			t.Fatalf("iter %d: %s does not parse: %v", i, e, err)
		}
		twice, err := ParseExpr(once.String())
		if err != nil || !reflect.DeepEqual(once, twice) {
			t.Fatalf("iter %d: canonical form not a fixpoint:\n  in:    %s\n  once:  %s\n  twice: %v (%v)",
				i, e, once, twice, err)
		}
	}
}

// exprQueries generates the expression-bearing queries of
// TestCanonicalExprQueryFixpoint, aggregation arguments, expression
// comparisons in WHERE and GROUP BY expressions, from one seed.
func exprQueries(n int) []string {
	r := rand.New(rand.NewSource(13))
	out := make([]string, n)
	for i := range out {
		agg := randExpr(r, 1+r.Intn(2))
		if len(ExprColumns(agg)) == 0 {
			// The validator rejects aggregating a pure constant (it would
			// fold to a literal); anchor it on a column.
			agg = Arith{Op: OpAdd, L: ColumnRef{Name: "clicks"}, R: agg}
		}
		lhs := randExpr(r, 1+r.Intn(2))
		rhs := randExpr(r, r.Intn(2))
		grp := randExpr(r, 1+r.Intn(2))
		if len(ExprColumns(grp)) == 0 {
			grp = Call{Name: "concat", Args: []Expr{ColumnRef{Name: "country"}, grp, Literal{Value: "x"}}}
		}
		ops := []string{"=", "<>", "<", "<=", ">", ">="}
		out[i] = fmt.Sprintf("SELECT sum(%s) FROM T WHERE %s %s %s GROUP BY %s TOP 5",
			agg.String(), lhs.String(), ops[r.Intn(len(ops))], rhs.String(), grp.String())
	}
	return out
}

// TestCanonicalExprQueryFixpoint extends the query-level fixpoint property
// to expression-bearing queries: aggregation arguments, expression
// comparisons in WHERE, and GROUP BY expressions all canonicalize to text
// that re-parses to the same canonical text.
func TestCanonicalExprQueryFixpoint(t *testing.T) {
	for i, text := range exprQueries(2000) {
		q, err := Parse(text)
		if err != nil {
			// Some renderings are unparseable only if String() is broken;
			// surface that loudly.
			t.Fatalf("iter %d: generated query does not parse: %q: %v", i, text, err)
		}
		canon := q.CanonicalString()
		reparsed, err := Parse(canon)
		if err != nil {
			t.Fatalf("iter %d: canonical text does not re-parse: %q: %v", i, canon, err)
		}
		if again := reparsed.CanonicalString(); again != canon {
			t.Fatalf("iter %d: canonicalization not a fixpoint:\n  first:  %q\n  second: %q", i, canon, again)
		}
	}
}

// TestRenderingDigest pins the text String and CanonicalString give every
// query of the corpus and of exprQueries, as one SHA-256 over all of them:
// the result-column names, merge keys and cache keys of those queries.
func TestRenderingDigest(t *testing.T) {
	const want = "0327d47b842165d1dd5b46419a321ce4648567ffa9ce378d98f0a4d04ac40b03"
	h := sha256.New()
	for _, text := range append(corpus(t), exprQueries(2000)...) {
		q, err := Parse(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		fmt.Fprintf(h, "%s\t%s\n", q, q.CanonicalString())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("renderings digest to %s, want %s", got, want)
	}
}

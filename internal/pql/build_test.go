package pql

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// rebuild makes every node of q again through b, leaves first, as the data
// plane's decoder does, and returns the query b made or its first refusal.
func rebuild(b Builder, q *Query) (*Query, error) {
	out := &Query{Table: q.Table, GroupBy: q.GroupBy, OrderBy: q.OrderBy, Top: q.Top, Offset: q.Offset, Limit: q.Limit}
	for _, x := range q.Select {
		arg, err := rebuildExpr(b, x.Arg)
		if err != nil {
			return nil, err
		}
		built, err := b.Item(x.Func, x.Column, arg)
		if err == nil && built.IsAgg != x.IsAgg {
			err = fmt.Errorf("select item %v carries IsAgg %v", built, x.IsAgg)
		}
		if err != nil {
			return nil, err
		}
		out.Select = append(out.Select, built)
	}
	var err error
	if out.Filter, err = rebuildPred(b, q.Filter); err != nil {
		return nil, err
	}
	if err := b.Where(out.Filter); err != nil {
		return nil, err
	}
	for _, e := range q.GroupByExprs {
		built, err := rebuildExpr(b, e)
		if err != nil {
			return nil, err
		}
		out.GroupByExprs = append(out.GroupByExprs, built)
	}
	return out, b.Finish(out)
}

func rebuildExpr(b Builder, e Expr) (Expr, error) {
	switch n := e.(type) {
	case nil:
		return nil, nil
	case ColumnRef:
		return b.Column(n.Name)
	case Literal:
		return b.Lit(n.Value)
	case Arith:
		l, err := rebuildExpr(b, n.L)
		if err != nil {
			return nil, err
		}
		r, err := rebuildExpr(b, n.R)
		if err != nil {
			return nil, err
		}
		return b.Arith(n.Op, l, r)
	case Call:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			var err error
			if args[i], err = rebuildExpr(b, a); err != nil {
				return nil, err
			}
		}
		return b.Call(n.Name, args)
	}
	return nil, fmt.Errorf("unknown expression %T", e)
}

func rebuildPred(b Builder, p Predicate) (Predicate, error) {
	switch n := p.(type) {
	case nil:
		return nil, nil
	case Comparison:
		return b.Comparison(n.Column, n.Op, n.Value)
	case In:
		return b.In(n.Column, n.Values, n.Negated)
	case Between:
		return b.Between(n.Column, n.Lo, n.Hi)
	case And:
		children, err := rebuildPreds(b, n.Children)
		if err != nil {
			return nil, err
		}
		return b.Junction(false, children)
	case Or:
		children, err := rebuildPreds(b, n.Children)
		if err != nil {
			return nil, err
		}
		return b.Junction(true, children)
	case Not:
		child, err := rebuildPred(b, n.Child)
		if err != nil {
			return nil, err
		}
		return b.Not(child)
	case ExprCompare:
		rhs, err := rebuildExpr(b, n.RHS)
		if err != nil {
			return nil, err
		}
		if col, ok := n.LHS.(ColumnRef); ok {
			return b.CompareColumn(col.Name, n.Op, rhs)
		}
		lhs, err := rebuildExpr(b, n.LHS)
		if err != nil {
			return nil, err
		}
		return b.Compare(lhs, n.Op, rhs)
	}
	return nil, fmt.Errorf("unknown predicate %T", p)
}

func rebuildPreds(b Builder, ps []Predicate) ([]Predicate, error) {
	out := make([]Predicate, len(ps))
	for i, p := range ps {
		var err error
		if out[i], err = rebuildPred(b, p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestValidateRefusesWhatParseCannotBuild starts from a query Parse built
// and breaks one rule at a time: a Strict Builder, which validates a tree
// the parser did not build, refuses each broken tree and makes the unbroken
// one again as it was.
func TestValidateRefusesWhatParseCannotBuild(t *testing.T) {
	strict := Builder{Strict: true}
	const base = "SELECT sum(a * 2), count(*) FROM T WHERE a = 1 AND (b IN (1, 2) OR NOT c BETWEEN 1 AND 2) AND abs(d) > e GROUP BY f, timeBucket(g, 7) TOP 3"
	if q, err := rebuild(strict, mustParse(t, base)); err != nil {
		t.Fatalf("a Strict Builder refuses %q: %v", base, err)
	} else if !reflect.DeepEqual(q, mustParse(t, base)) {
		t.Fatalf("a Strict Builder makes %#v of %q", q, base)
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
		if _, err := rebuild(strict, q); err == nil {
			t.Errorf("%s: accepted %s", name, q)
		}
	}
	// The broker's hybrid rewrite of a query at the bound passes.
	q := mustParse(t, "SELECT count(*) FROM T WHERE "+strings.Repeat("NOT ", MaxDepth-1)+"a = 1")
	if _, err := rebuild(strict, q.WithExtraFilter(Comparison{Column: "t", Op: OpGte, Value: int64(100)})); err != nil {
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

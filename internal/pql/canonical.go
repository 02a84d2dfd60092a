package pql

import "sort"

// Canonicalization rewrites a query into a normal form so that semantically
// identical statements render to the same text: the query-result cache keys
// on CanonicalString, so `WHERE a='x' AND b='y'` and the commuted
// `WHERE b='y' AND a='x'` must collide. The normal form flattens nested
// AND/OR chains, sorts commutative children by their rendered text, sorts IN
// lists, and drops degenerate single-child conjunctions. Rendering through
// Query.String then normalizes whitespace and keyword case for free.

// Canonical returns a copy of the query with its filter and every embedded
// expression in canonical form. The receiver is not modified. Parse already
// canonicalizes expressions, so for parsed queries the select/group-by
// rewrites are no-ops; programmatically built queries get normalized here.
func (q *Query) Canonical() *Query {
	out := *q
	out.Filter = CanonicalPredicate(q.Filter)
	copied := false
	for i, e := range q.Select {
		if e.Arg == nil {
			continue
		}
		if !copied {
			out.Select = append([]Expression(nil), q.Select...)
			copied = true
		}
		arg := CanonicalExpr(e.Arg)
		out.Select[i].Arg = arg
		out.Select[i].Column = arg.String()
	}
	if q.HasExprGroupBy() {
		out.GroupBy = append([]string(nil), q.GroupBy...)
		out.GroupByExprs = append([]Expr(nil), q.GroupByExprs...)
		for i, e := range q.GroupByExprs {
			if e == nil {
				continue
			}
			ce := CanonicalExpr(e)
			out.GroupByExprs[i] = ce
			out.GroupBy[i] = ce.String()
		}
	}
	return &out
}

// CanonicalString renders the canonical form of the query — the stable cache
// key text. Two queries that differ only in predicate order, whitespace, or
// keyword case produce the same CanonicalString.
func (q *Query) CanonicalString() string {
	return q.Canonical().String()
}

// CanonicalPredicate rewrites a predicate tree into canonical form: children
// of AND/OR are canonicalized, same-operator chains are flattened, the
// resulting commutative child lists are sorted by rendered text, and IN
// value lists are sorted. Nil stays nil.
func CanonicalPredicate(p Predicate) Predicate {
	switch n := p.(type) {
	case And:
		children := flattenAnd(n.Children)
		if len(children) == 1 {
			return children[0]
		}
		return And{Children: sortPredicates(children)}
	case Or:
		children := flattenOr(n.Children)
		if len(children) == 1 {
			return children[0]
		}
		return Or{Children: sortPredicates(children)}
	case Not:
		return Not{Child: CanonicalPredicate(n.Child)}
	case In:
		vals := append([]any(nil), n.Values...)
		sort.SliceStable(vals, func(i, j int) bool {
			return formatLiteral(vals[i]) < formatLiteral(vals[j])
		})
		return In{Column: n.Column, Values: vals, Negated: n.Negated}
	case ExprCompare:
		lhs, rhs := CanonicalExpr(n.LHS), CanonicalExpr(n.RHS)
		// A comparison whose sides folded down to `column op literal`
		// collapses into the classic Comparison node, so index and pruning
		// plans apply to it.
		if cr, ok := lhs.(ColumnRef); ok {
			if lit, ok := rhs.(Literal); ok {
				return Comparison{Column: cr.Name, Op: n.Op, Value: lit.Value}
			}
		}
		return ExprCompare{LHS: lhs, Op: n.Op, RHS: rhs}
	default:
		return p
	}
}

// flattenAnd canonicalizes each child and splices nested ANDs into one
// chain, so (a AND (b AND c)) and ((a AND b) AND c) normalize identically.
func flattenAnd(children []Predicate) []Predicate {
	out := make([]Predicate, 0, len(children))
	for _, c := range children {
		cc := CanonicalPredicate(c)
		if nested, ok := cc.(And); ok {
			out = append(out, nested.Children...)
			continue
		}
		out = append(out, cc)
	}
	return out
}

func flattenOr(children []Predicate) []Predicate {
	out := make([]Predicate, 0, len(children))
	for _, c := range children {
		cc := CanonicalPredicate(c)
		if nested, ok := cc.(Or); ok {
			out = append(out, nested.Children...)
			continue
		}
		out = append(out, cc)
	}
	return out
}

// sortPredicates orders commutative children by rendered text. Children are
// already canonical, so the rendering is a stable sort key; duplicates keep
// their relative order (SliceStable) and the result stays deterministic.
func sortPredicates(children []Predicate) []Predicate {
	keys := make([]string, len(children))
	for i, c := range children {
		keys[i] = c.String()
	}
	idx := make([]int, len(children))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return keys[idx[i]] < keys[idx[j]] })
	out := make([]Predicate, len(children))
	for i, j := range idx {
		out[i] = children[j]
	}
	return out
}

package pql

import "slices"

// Canonicalization rewrites a query into a normal form so that semantically
// identical statements render to the same text: the query-result cache keys
// on CanonicalString, so `WHERE a='x' AND b='y'` and the commuted
// `WHERE b='y' AND a='x'` must collide. Expressions are canonical as they are
// built (Builder); what is left is the filter: the normal form flattens
// nested AND/OR chains, sorts commutative children and IN lists by their
// text, and drops degenerate single-child conjunctions. Rendering through
// Query.String then normalizes whitespace and keyword case for free.

// CanonicalString renders the canonical form of the query — the stable cache
// key text. Two queries that differ only in predicate order, whitespace, or
// keyword case produce the same CanonicalString.
func (q *Query) CanonicalString() string {
	c := *q
	c.Filter = CanonicalPredicate(q.Filter)
	return c.String()
}

// CanonicalPredicate rewrites a predicate tree into canonical form: children
// of AND/OR are canonicalized, same-operator chains are flattened, so that
// (a AND (b AND c)) and ((a AND b) AND c) normalize identically, the
// resulting commutative child lists are sorted stably by their text, and IN
// value lists are sorted. Nil stays nil.
func CanonicalPredicate(p Predicate) Predicate {
	switch n := p.(type) {
	case And:
		return canonicalJunction(false, n.Children)
	case Or:
		return canonicalJunction(true, n.Children)
	case Not:
		return Not{Child: CanonicalPredicate(n.Child)}
	case In:
		// Sorted by their text, stable, so values of one text keep their
		// order; comparing reads two texts up to their first difference.
		if !slices.IsSortedFunc(n.Values, compareText) {
			n.Values = slices.Clone(n.Values)
			slices.SortStableFunc(n.Values, compareText)
			return n
		}
	}
	return p
}

// canonicalJunction is the canonical OR (or) or AND of children.
func canonicalJunction(or bool, children []Predicate) Predicate {
	out := make([]Predicate, 0, len(children))
	for _, c := range children {
		c = CanonicalPredicate(c)
		switch n := c.(type) {
		case And:
			if !or {
				out = append(out, n.Children...)
				continue
			}
		case Or:
			if or {
				out = append(out, n.Children...)
				continue
			}
		}
		out = append(out, c)
	}
	slices.SortStableFunc(out, compareText)
	switch {
	case len(out) == 1:
		return out[0]
	case or:
		return Or{Children: out}
	}
	return And{Children: out}
}

package pql

// PredicateHasExprCompare reports whether a filter tree contains at least
// one expression-comparison leaf; planners use it to skip dictionary-space
// setup for the common plain-predicate query.
func PredicateHasExprCompare(p Predicate) bool {
	switch n := p.(type) {
	case And:
		for _, c := range n.Children {
			if PredicateHasExprCompare(c) {
				return true
			}
		}
	case Or:
		for _, c := range n.Children {
			if PredicateHasExprCompare(c) {
				return true
			}
		}
	case Not:
		return PredicateHasExprCompare(n.Child)
	case ExprCompare:
		return true
	}
	return false
}

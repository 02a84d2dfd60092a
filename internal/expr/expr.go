// Package expr evaluates PQL scalar expressions over blocks of rows. Compile
// lowers a type-correct expression into a Kernel whose nodes are entries of
// the builtin table (pql.Func); a Kernel computes a whole block at once from
// typed column blocks (compile.go). A row is a block of one — ingestion's
// derived columns — and a dictionary is a block of its own values
// (Kernel.EvalOverDict), so one evaluator serves every caller.
package expr

import (
	"errors"
	"fmt"
	"unicode/utf8"

	"pinot/internal/pql"
	"pinot/internal/segment"
)

// KindOf maps a column data type to its expression kind.
func KindOf(t segment.DataType) pql.Kind {
	switch t {
	case segment.TypeInt, segment.TypeLong:
		return pql.Long
	case segment.TypeFloat, segment.TypeDouble:
		return pql.Double
	case segment.TypeBoolean:
		return pql.Bool
	default:
		return pql.String
	}
}

// CompareKinds validates a comparison between two already-inferred kinds.
func CompareKinds(op pql.CompareOp, lk, rk pql.Kind) error {
	switch {
	case lk.Numeric() && rk.Numeric():
		return nil
	case lk == pql.String && rk == pql.String:
		return nil
	case lk == pql.Bool && rk == pql.Bool:
		if op != pql.OpEq && op != pql.OpNeq {
			return fmt.Errorf("expr: booleans only compare with = and <>")
		}
		return nil
	}
	return fmt.Errorf("expr: cannot compare %s with %s", lk, rk)
}

// ErrLimit marks an evaluation stopped by a resource limit.
var ErrLimit = errors.New("expr: resource limit exceeded")

// The resource limits, generous for hand-written queries and fatal for
// runaway ones. A kernel of more than maxNodes nodes fails every non-empty
// block at its first row: a row visits every node once. A string a builtin
// constructs fails its row past maxStringLen bytes.
const (
	maxNodes     = 65536
	maxStringLen = 4096
)

// CaseFoldFits reports whether any case mapping of s fits the string limit,
// whatever its runes: a rune maps to at most utf8.UTFMax bytes.
func CaseFoldFits(s string) bool { return len(s) <= maxStringLen/utf8.UTFMax }

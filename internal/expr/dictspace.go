package expr

import (
	"fmt"

	"pinot/internal/pql"
)

// Dictionary-space evaluation: for a deterministic expression over a single
// dict-encoded column, the expression takes at most Cardinality distinct
// input values, so evaluating it once per dictionary entry yields a memo
// that answers every row by dictID lookup. The memo stores results in a
// typed slice matching the expression's inferred kind, so consumers (the
// predicate compiler, groupers, aggregation kernels) read it without
// per-row boxing.

// DictMemo holds one expression's value per dictionary id of one segment
// column. Exactly one of the typed slices is populated, per Kind. A memo is
// immutable after construction and safe for concurrent readers.
type DictMemo struct {
	Kind    Kind
	Longs   []int64
	Doubles []float64
	Strings []string
	Bools   []bool
}

// Value boxes the memoized result for one dictionary id.
func (m *DictMemo) Value(id int) any {
	switch m.Kind {
	case Long:
		return m.Longs[id]
	case Double:
		return m.Doubles[id]
	case Bool:
		return m.Bools[id]
	default:
		return m.Strings[id]
	}
}

// EvalOverDict interprets e once per dictionary entry of a single column.
// value(id) supplies the dictionary entry for id in [0, card); kind is the
// expression's already-inferred result kind. Each entry gets a fresh step
// budget (Eval resets the counter), so the memo enforces the same per-row
// limits the interpreter would. Any per-entry error — division by zero on
// some entry, a string limit — aborts the memo and the caller falls back
// to the row path, which decides per live row whether that error actually
// surfaces. A memo must never change which queries error, so it only
// exists when every entry evaluates cleanly.
func EvalOverDict(c *Ctx, e pql.Expr, colName string, value func(id int) any, card int, kind Kind) (*DictMemo, error) {
	m := &DictMemo{Kind: kind}
	switch kind {
	case Long:
		m.Longs = make([]int64, card)
	case Double:
		m.Doubles = make([]float64, card)
	case Bool:
		m.Bools = make([]bool, card)
	default:
		m.Strings = make([]string, card)
	}
	var cur any
	get := func(name string) any {
		if name != colName {
			return nil
		}
		return cur
	}
	for id := 0; id < card; id++ {
		cur = value(id)
		v, err := Eval(c, e, get)
		if err != nil {
			return nil, fmt.Errorf("dict entry %d: %w", id, err)
		}
		switch kind {
		case Long:
			lv, ok := v.(int64)
			if !ok {
				return nil, fmt.Errorf("dict entry %d: got %T, want int64", id, v)
			}
			m.Longs[id] = lv
		case Double:
			// Strict: a memo must box exactly what the interpreter boxes,
			// or group/distinct keys rendered from it could diverge.
			dv, ok := v.(float64)
			if !ok {
				return nil, fmt.Errorf("dict entry %d: got %T, want float64", id, v)
			}
			m.Doubles[id] = dv
		case Bool:
			bv, ok := v.(bool)
			if !ok {
				return nil, fmt.Errorf("dict entry %d: got %T, want bool", id, v)
			}
			m.Bools[id] = bv
		default:
			sv, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("dict entry %d: got %T, want string", id, v)
			}
			m.Strings[id] = sv
		}
	}
	return m, nil
}

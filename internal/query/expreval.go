package query

import (
	"fmt"

	"pinot/internal/expr"
	"pinot/internal/pql"
	"pinot/internal/segment"
)

// This file binds pql expressions to one segment's columns for execution.
// Each expression gets an exprEval: its block kernel over the segment's
// columns and, when the expression reads one dictionary column, the kernel's
// values over that dictionary (dictexpr.go), which then serve every row by
// dictionary id.

// exprEval is one expression bound to one segment execution. It is
// single-goroutine, like the rest of a segment executor.
type exprEval struct {
	env    *execEnv
	kernel *expr.Kernel
	src    *kernelBlockSource // the kernel's columns, in slot order
	// memo, when set, holds the expression's value per dictionary id of its
	// one column, and serves every evaluation by dictID lookup. No row can
	// fail: every entry evaluated cleanly. The kernel never runs then.
	memo *pql.Vec
	ids  []uint32
	vec  pql.Vec // a block gathered from the memo
}

// newExprEval type-checks and compiles an expression against the segment
// (via the table-level schema for evolution defaults) and binds its column
// readers.
func newExprEval(env *execEnv, cs columnSource, e pql.Expr, opt Options) (*exprEval, error) {
	byName := map[string]segment.ColumnReader{}
	for _, name := range pql.ExprColumns(e) {
		col, err := cs.column(name)
		if err != nil {
			return nil, err
		}
		if !col.Spec().SingleValue {
			return nil, fmt.Errorf("query: expressions over multi-value column %q are not supported", name)
		}
		byName[name] = col
	}
	k, err := expr.Compile(e, func(name string) (pql.Kind, bool) {
		col, ok := byName[name]
		if !ok {
			return 0, false
		}
		return expr.KindOf(col.Spec().Type), true
	})
	if err != nil {
		return nil, fmt.Errorf("query: %v", err)
	}
	ev := &exprEval{env: env, kernel: k, src: &kernelBlockSource{}}
	for _, name := range k.Cols {
		ev.src.readers = append(ev.src.readers, byName[name])
	}
	// Dictionary space: an expression of one dictionary column evaluates
	// once per dictionary entry. Some entry failing leaves it on the row
	// path, which fails only if a row carries that entry.
	if col := ev.src.readers; !opt.disableDictExpr && len(col) == 1 && col[0].HasDictionary() {
		if m, err := k.EvalOverDict(dictValues(col[0])); err == nil {
			ev.memo = m
			env.dictExprUsed = true
		}
	}
	return ev, nil
}

// evalRows computes the expression over docs, by dictionary id from the memo
// or through the kernel, and reports the lowest failing row.
func (ev *exprEval) evalRows(docs []int) (*pql.Vec, int, error) {
	if ev.memo == nil {
		return ev.kernel.Eval(ev.src, docs)
	}
	ev.ids = sized(ev.ids, len(docs))
	ev.src.readers[0].DictIDs(docs, ev.ids)
	ev.vec.Kind = ev.memo.Kind
	ev.vec.Resize(len(docs))
	pql.Gather(&ev.vec, ev.memo, ev.ids)
	return &ev.vec, 0, nil
}

// eval computes the expression over docs. A failure latches on the
// execution environment, surfaced at the next block checkpoint.
func (ev *exprEval) eval(docs []int) *pql.Vec {
	v, _, err := ev.evalRows(docs)
	if err != nil {
		ev.env.fail(err)
	}
	return v
}

// fillDoubles computes a block of float64 aggregation inputs, promoting a
// long result exactly as a dictionary column's numeric reader promotes.
func (ev *exprEval) fillDoubles(docs []int, dst []float64) {
	v := ev.eval(docs)
	if v.Kind == pql.Double {
		copy(dst, v.Doubles)
		return
	}
	for i, x := range v.Longs {
		dst[i] = float64(x)
	}
}

// fillValues computes a block of boxed values for group keys and distinct
// counts.
func (ev *exprEval) fillValues(docs []int, dst []any) {
	v := ev.eval(docs)
	for i := range docs {
		dst[i] = v.Value(i)
	}
}

// groupItem is one GROUP BY item: a dictionary column for plain items, a
// bound expression evaluator for derived ones.
type groupItem struct {
	col segment.ColumnReader
	ev  *exprEval
}

// kernelBlockSource feeds typed column blocks to a kernel: raw metric
// columns decode through the batch Longs/Doubles readers, dictionary
// columns through batch id unpack and their values by id, built on first use.
type kernelBlockSource struct {
	readers []segment.ColumnReader
	ids     []uint32
	dicts   []*pql.Vec
}

func (s *kernelBlockSource) Col(slot int, docs []int, dst *pql.Vec) {
	col := s.readers[slot]
	switch {
	case col.HasDictionary():
		if s.dicts == nil {
			s.dicts = make([]*pql.Vec, len(s.readers))
		}
		if s.dicts[slot] == nil {
			s.dicts[slot] = dictValues(col)
		}
		s.ids = sized(s.ids, len(docs))
		col.DictIDs(docs, s.ids)
		pql.Gather(dst, s.dicts[slot], s.ids)
	case dst.Kind == pql.Long:
		col.Longs(docs, dst.Longs[:len(docs)])
	default:
		col.Doubles(docs, dst.Doubles[:len(docs)])
	}
}

// buildExprFilter compiles an expression comparison into the scan cursor's
// expression leaf. Expression predicates never prune, never use indexes,
// and never claim soundness they don't have: every candidate document is
// evaluated, charging one scanned entry per referenced column.
func buildExprFilter(env *execEnv, cs columnSource, p pql.ExprCompare, opt Options, stats *Stats) (docIDSet, error) {
	lev, err := newExprEval(env, cs, p.LHS, opt)
	if err != nil {
		return nil, err
	}
	rev, err := newExprEval(env, cs, p.RHS, opt)
	if err != nil {
		return nil, err
	}
	if err := expr.CompareKinds(p.Op, lev.kernel.Kind, rev.kernel.Kind); err != nil {
		return nil, fmt.Errorf("query: %v", err)
	}
	cmp := &exprCompare{env: env, lhs: lev, rhs: rev, op: p.Op}
	leaf := &scanLeaf{kind: scanExpr, cmp: cmp, stats: stats, perEntry: int64(len(pql.PredicateColumns(p)))}
	return &scanDocIDSet{numDocs: cs.seg.NumDocs(), leaf: leaf}, nil
}

// exprCompare is a comparison of two expressions, the scan cursor's
// scanExpr leaf: both sides evaluate over the cursor's chunk or candidates
// and compare in one typed batch.
type exprCompare struct {
	env      *execEnv
	lhs, rhs *exprEval
	op       pql.CompareOp
}

// eval sets the cursor's match bits for docs, one bit per document, as a
// document-at-a-time evaluation of both sides sets them: a document whose
// evaluation fails does not match. It reports the first failure that
// evaluation would meet, whose latching is the caller's.
func (x *exprCompare) eval(c *scanCursor, docs []int) (row int, err error) {
	row, err = x.evalBlock(c, docs, c.match)
	if err == nil {
		return 0, nil
	}
	// From the failing row on, the block's bits are unspecified: a document
	// at a time instead, the failing ones left out.
	var one [1]uint64
	for i := row; i < len(docs); i++ {
		c.match[i>>6] &^= 1 << (i & 63)
		if _, err := x.evalBlock(c, docs[i:i+1], one[:]); err == nil {
			c.match[i>>6] |= one[0] << (i & 63)
		}
	}
	return row, err
}

// evalBlock compares both sides over docs into out and reports the first
// failure: the lower row's, the left side's on a tie.
func (x *exprCompare) evalBlock(c *scanCursor, docs []int, out []uint64) (int, error) {
	lv, lrow, lerr := x.lhs.evalRows(docs)
	rv, rrow, rerr := x.rhs.evalRows(docs)
	cmpVecs(x.op, lv, rv, out, &c.doubles, &c.doubles2)
	if lerr != nil && (rerr == nil || lrow <= rrow) {
		return lrow, lerr
	}
	return rrow, rerr
}

// cmpVecs sets bit i of out when a[i] op b[i] holds, and clears the others.
// Two longs compare as int64, two strings bytewise, two booleans by
// equality (= and <> are their only operators), and mixed numerics as
// float64, promoted into the scratch da and db.
func cmpVecs(op pql.CompareOp, a, b *pql.Vec, out []uint64, da, db *[]float64) {
	switch {
	case a.Kind == pql.Long && b.Kind == pql.Long:
		cmpBlock(op, a.Longs, b.Longs, out)
	case a.Kind == pql.String:
		cmpBlock(op, a.Strings, b.Strings, out)
	case a.Kind == pql.Bool:
		clear(out)
		for i := range a.Bools {
			out[i>>6] |= b2u((a.Bools[i] == b.Bools[i]) == (op == pql.OpEq)) << (i & 63)
		}
	default:
		cmpBlock(op, asDoubles(a, da), asDoubles(b, db), out)
	}
}

// asDoubles is v's values as float64: its own block, or its longs promoted
// into buf.
func asDoubles(v *pql.Vec, buf *[]float64) []float64 {
	if v.Kind == pql.Double {
		return v.Doubles
	}
	*buf = sized(*buf, len(v.Longs))
	for i, x := range v.Longs {
		(*buf)[i] = float64(x)
	}
	return *buf
}

// cmpBlock sets bit i of out when a[i] op b[i] holds, and clears the others.
// Each word is gathered in a register, without a branch per value.
func cmpBlock[T int64 | float64 | string](op pql.CompareOp, a, b []T, out []uint64) {
	for w := range out {
		lo, hi := w<<6, min(w<<6+64, len(a))
		x, y := a[lo:hi], b[lo:hi]
		var m uint64
		switch op {
		case pql.OpEq:
			for i := range x {
				m |= b2u(x[i] == y[i]) << i
			}
		case pql.OpNeq:
			for i := range x {
				m |= b2u(x[i] != y[i]) << i
			}
		case pql.OpLt:
			for i := range x {
				m |= b2u(x[i] < y[i]) << i
			}
		case pql.OpLte:
			for i := range x {
				m |= b2u(x[i] <= y[i]) << i
			}
		case pql.OpGt:
			for i := range x {
				m |= b2u(x[i] > y[i]) << i
			}
		case pql.OpGte:
			for i := range x {
				m |= b2u(x[i] >= y[i]) << i
			}
		}
		out[w] = m
	}
}

// b2u is 1 for true: the compiler sets it from the flags, without a branch.
func b2u(c bool) uint64 {
	if c {
		return 1
	}
	return 0
}

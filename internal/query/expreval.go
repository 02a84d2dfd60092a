package query

import (
	"fmt"

	"pinot/internal/expr"
	"pinot/internal/pql"
	"pinot/internal/segment"
)

// This file binds pql expressions to one segment's columns for execution.
// Each expression gets an exprEval: the interpreter path (per-row, sandboxed
// by expr.Limits) always works; when the expression lowers to a typed block
// kernel and the options allow it, batch fills run through the kernel
// instead. Both produce bit-identical values, so plan-time selection is
// purely a performance decision — the differential suite flips
// DisableExprCompile to prove it.

// exprEval is one expression bound to one segment execution. It is
// single-goroutine, like the rest of a segment executor.
type exprEval struct {
	env     *execEnv
	src     pql.Expr
	kind    expr.Kind
	names   []string
	readers []segment.ColumnReader // aligned with names
	kernel  *expr.Kernel           // nil → interpreter only
	ksrc    *kernelBlockSource     // aligned with kernel.Cols
	// memo, when set, serves every evaluation by dictID lookup: the
	// expression was evaluated once per dictionary entry of its single
	// column (dictexpr.go). Memo existence implies no row can error — every
	// entry already evaluated cleanly.
	memo    *expr.DictMemo
	idsBuf  []uint32
	ictx    *expr.Ctx
	get     expr.Getter
	curDoc  int
	longBuf []int64
	dblBuf  []float64
}

// newExprEval type-checks an expression against the segment (via the
// table-level schema for evolution defaults), binds its column readers, and
// compiles it to a block kernel unless disabled or not lowerable.
func newExprEval(env *execEnv, cs columnSource, e pql.Expr, opt Options) (*exprEval, error) {
	ev := &exprEval{env: env, src: e, curDoc: -1}
	byName := map[string]int{}
	for _, name := range pql.ExprColumns(e) {
		col, err := cs.column(name)
		if err != nil {
			return nil, err
		}
		if !col.Spec().SingleValue {
			return nil, fmt.Errorf("query: expressions over multi-value column %q are not supported", name)
		}
		byName[name] = len(ev.names)
		ev.names = append(ev.names, name)
		ev.readers = append(ev.readers, col)
	}
	kindOf := func(name string) (expr.Kind, bool) {
		i, ok := byName[name]
		if !ok {
			return 0, false
		}
		return expr.KindOf(ev.readers[i].Spec().Type), true
	}
	kind, err := expr.Infer(e, kindOf)
	if err != nil {
		return nil, fmt.Errorf("query: %v", err)
	}
	ev.kind = kind
	ev.ictx = expr.NewCtx(expr.Limits{})
	ev.ictx.Check = env.checkpoint
	ev.get = func(name string) any {
		i, ok := byName[name]
		if !ok {
			return nil
		}
		return readScalarValue(ev.readers[i], ev.curDoc)
	}
	if !opt.DisableExprCompile {
		if k, ok := expr.Compile(e, kindOf); ok {
			ev.kernel = k
			readers := make([]segment.ColumnReader, len(k.Cols))
			for i, name := range k.Cols {
				readers[i] = ev.readers[byName[name]]
			}
			ev.ksrc = &kernelBlockSource{readers: readers}
		}
	}
	// Dictionary-space memo: a deterministic single-dict-column expression
	// evaluates once per dictionary entry and serves every row by lookup.
	// The binding is independent of DisableExprCompile/DisableVectorization —
	// values are bit-identical on all paths, so those flags keep flipping
	// only execution shape, never plan.
	if !opt.DisableDictExpr && len(ev.names) == 1 && ev.readers[0].HasDictionary() && pql.ExprDeterministic(e) {
		if m, ok := dictMemoFor(cs, ev.readers[0], ev.names[0], e, kind, opt, env.table); ok {
			ev.memo = m
			env.dictExprUsed = true
		}
	}
	return ev, nil
}

// readScalarValue reads one document's value in canonical scalar form:
// int64, float64, string or bool.
func readScalarValue(col segment.ColumnReader, doc int) any {
	if col.HasDictionary() {
		return col.Value(col.DictID(doc))
	}
	if col.Spec().Type.Integral() {
		return col.Long(doc)
	}
	return col.Double(doc)
}

// value interprets the expression for one row. Evaluation errors latch on
// the execution environment — surfaced at the next block checkpoint, the
// same place in both execution modes — and yield nil here.
func (ev *exprEval) value(doc int) any {
	if ev.memo != nil {
		return ev.memo.Value(ev.readers[0].DictID(doc))
	}
	ev.curDoc = doc
	v, err := expr.Eval(ev.ictx, ev.src, ev.get)
	if err != nil {
		ev.env.fail(err)
		return nil
	}
	return v
}

// double reads the expression as a float64 aggregation input, promoting a
// long result exactly as the scalar column path promotes.
func (ev *exprEval) double(doc int) float64 {
	switch v := ev.value(doc).(type) {
	case int64:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

// fillDoubles computes a block of float64 inputs: the kernel when compiled,
// the interpreter per row otherwise.
func (ev *exprEval) fillDoubles(docs []int, dst []float64) {
	if ev.memo != nil {
		switch ev.memo.Kind {
		case expr.Long:
			for i, id := range ev.dictIDs(docs) {
				dst[i] = float64(ev.memo.Longs[id])
			}
			return
		case expr.Double:
			for i, id := range ev.dictIDs(docs) {
				dst[i] = ev.memo.Doubles[id]
			}
			return
		}
		// Non-numeric memo: the scalar path yields 0 here too.
		for i := range docs {
			dst[i] = 0
		}
		return
	}
	if ev.kernel != nil {
		ev.kernel.EvalDoubles(ev.ksrc, docs, dst)
		return
	}
	for i, doc := range docs {
		dst[i] = ev.double(doc)
	}
}

// dictIDs batch-unpacks the single bound column's dict ids for a block.
func (ev *exprEval) dictIDs(docs []int) []uint32 {
	if cap(ev.idsBuf) < len(docs) {
		ev.idsBuf = make([]uint32, blockSize)
	}
	ids := ev.idsBuf[:len(docs)]
	ev.readers[0].DictIDs(docs, ids)
	return ids
}

// fillValues computes a block of boxed values for group keys and distinct
// counts. Kernel results box from the typed buffers; the interpreter path
// boxes row by row. Errors leave nil values, matching the scalar path.
func (ev *exprEval) fillValues(docs []int, dst []any) {
	if ev.memo != nil {
		for i, id := range ev.dictIDs(docs) {
			dst[i] = ev.memo.Value(int(id))
		}
		return
	}
	if ev.kernel == nil {
		for i, doc := range docs {
			dst[i] = ev.value(doc)
		}
		return
	}
	n := len(docs)
	if ev.kernel.Kind == expr.Long {
		if cap(ev.longBuf) < n {
			ev.longBuf = make([]int64, blockSize)
		}
		ls := ev.longBuf[:n]
		ev.kernel.EvalLongs(ev.ksrc, docs, ls)
		for i, v := range ls {
			dst[i] = v
		}
		return
	}
	if cap(ev.dblBuf) < n {
		ev.dblBuf = make([]float64, blockSize)
	}
	ds := ev.dblBuf[:n]
	ev.kernel.EvalDoubles(ev.ksrc, docs, ds)
	for i, v := range ds {
		dst[i] = v
	}
}

// groupItem is one GROUP BY item: a dictionary column for plain items, a
// bound expression evaluator for derived ones.
type groupItem struct {
	col segment.ColumnReader
	ev  *exprEval
}

// read returns the item's group value for one document.
func (g groupItem) read(doc int) any {
	if g.ev != nil {
		return g.ev.value(doc)
	}
	return g.col.Value(g.col.DictID(doc))
}

// kernelBlockSource feeds typed column blocks to a compiled kernel: raw
// metric columns decode through the batch Longs/Doubles readers, dictionary
// columns through batch id unpack plus a lazily built dense decode table.
type kernelBlockSource struct {
	readers []segment.ColumnReader
	ids     []uint32
	decL    [][]int64
	decD    [][]float64
}

func (s *kernelBlockSource) dictIDs(slot int, docs []int) []uint32 {
	if cap(s.ids) < len(docs) {
		s.ids = make([]uint32, blockSize)
	}
	ids := s.ids[:len(docs)]
	s.readers[slot].DictIDs(docs, ids)
	return ids
}

func (s *kernelBlockSource) LongCol(slot int, docs []int, dst []int64) {
	col := s.readers[slot]
	if !col.HasDictionary() {
		col.Longs(docs, dst)
		return
	}
	if s.decL == nil {
		s.decL = make([][]int64, len(s.readers))
	}
	dec := s.decL[slot]
	if dec == nil {
		card := col.Cardinality()
		dec = make([]int64, card)
		for id := 0; id < card; id++ {
			if v, ok := col.Value(id).(int64); ok {
				dec[id] = v
			}
		}
		s.decL[slot] = dec
	}
	for i, id := range s.dictIDs(slot, docs) {
		dst[i] = dec[id]
	}
}

func (s *kernelBlockSource) DoubleCol(slot int, docs []int, dst []float64) {
	col := s.readers[slot]
	if !col.HasDictionary() {
		col.Doubles(docs, dst)
		return
	}
	if s.decD == nil {
		s.decD = make([][]float64, len(s.readers))
	}
	dec := s.decD[slot]
	if dec == nil {
		card := col.Cardinality()
		dec = make([]float64, card)
		for id := 0; id < card; id++ {
			if v, ok := col.Value(id).(float64); ok {
				dec[id] = v
			}
		}
		s.decD[slot] = dec
	}
	for i, id := range s.dictIDs(slot, docs) {
		dst[i] = dec[id]
	}
}

// buildExprFilter compiles an expression comparison into a scan operator.
// Expression predicates never prune, never use indexes, and never claim
// soundness they don't have: every candidate document is evaluated, charging
// one scanned entry per referenced column — in both execution modes.
func buildExprFilter(env *execEnv, cs columnSource, p pql.ExprCompare, opt Options, stats *Stats) (docIDSet, error) {
	lev, err := newExprEval(env, cs, p.LHS, opt)
	if err != nil {
		return nil, err
	}
	rev, err := newExprEval(env, cs, p.RHS, opt)
	if err != nil {
		return nil, err
	}
	if err := expr.CompareKinds(p.Op, lev.kind, rev.kind); err != nil {
		return nil, fmt.Errorf("query: %v", err)
	}
	nCols := int64(len(pql.PredicateColumns(p)))
	n := cs.seg.NumDocs()
	// The cursor needs both sides compiled; a side that requires the
	// interpreter keeps the whole predicate on the per-document closure so
	// evaluation order (and therefore the first error and the stats) match
	// the scalar mode exactly.
	if !opt.DisableVectorization && lev.kernel != nil && rev.kernel != nil {
		cmp := &exprCompare{lhs: lev, rhs: rev, op: p.Op,
			bothLong: lev.kernel.Kind == expr.Long && rev.kernel.Kind == expr.Long}
		return &scanDocIDSet{numDocs: n, leaf: &scanLeaf{kind: scanExpr, cmp: cmp, stats: stats, perEntry: nCols}}, nil
	}
	return &scanDocIDSet{numDocs: n, match: func(doc int) bool {
		if stats != nil {
			stats.NumEntriesScanned += nCols
		}
		lv := lev.value(doc)
		rv := rev.value(doc)
		if lv == nil || rv == nil {
			return false
		}
		ok, err := expr.CompareValues(p.Op, lv, rv)
		if err != nil {
			env.fail(err)
			return false
		}
		return ok
	}}, nil
}

// exprCompare is a comparison of two compiled expressions, the scan cursor's
// scanExpr leaf: both sides evaluate through their kernels over the cursor's
// chunk and compare in one typed batch.
type exprCompare struct {
	lhs, rhs *exprEval
	op       pql.CompareOp
	bothLong bool
}

// eval sets the cursor's flags for the documents of its chunk.
func (x *exprCompare) eval(c *scanCursor) {
	n := len(c.docs)
	if x.bothLong {
		c.longs, c.longs2 = sized(c.longs, n), sized(c.longs2, n)
		x.lhs.kernel.EvalLongs(x.lhs.ksrc, c.docs, c.longs)
		x.rhs.kernel.EvalLongs(x.rhs.ksrc, c.docs, c.longs2)
		cmpBlock(x.op, c.longs, c.longs2, c.flags)
		return
	}
	c.doubles, c.doubles2 = sized(c.doubles, n), sized(c.doubles2, n)
	x.lhs.kernel.EvalDoubles(x.lhs.ksrc, c.docs, c.doubles)
	x.rhs.kernel.EvalDoubles(x.rhs.ksrc, c.docs, c.doubles2)
	cmpBlock(x.op, c.doubles, c.doubles2, c.flags)
}

func cmpBlock[T int64 | float64](op pql.CompareOp, a, b []T, out []bool) {
	switch op {
	case pql.OpEq:
		for i := range a {
			out[i] = a[i] == b[i]
		}
	case pql.OpNeq:
		for i := range a {
			out[i] = a[i] != b[i]
		}
	case pql.OpLt:
		for i := range a {
			out[i] = a[i] < b[i]
		}
	case pql.OpLte:
		for i := range a {
			out[i] = a[i] <= b[i]
		}
	case pql.OpGt:
		for i := range a {
			out[i] = a[i] > b[i]
		}
	case pql.OpGte:
		for i := range a {
			out[i] = a[i] >= b[i]
		}
	}
}

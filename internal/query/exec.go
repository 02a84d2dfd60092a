package query

import (
	"context"
	"fmt"
	"slices"

	"pinot/internal/pql"
	"pinot/internal/segment"
	"pinot/internal/startree"
)

// IndexedSegment pairs a segment with its optional star-tree index, the unit
// of per-segment planning.
type IndexedSegment struct {
	Seg  segment.Reader
	Tree *startree.Tree
}

// ExecuteSegment runs a query against one segment, generating the logical
// and physical plan for this segment's specific indexes (paper 3.3.4: "query
// plans are generated on a per-segment basis"). The context is checked at
// block boundaries, so a cancelled query stops within ~blockSize matched
// docs of ctx.Done().
func ExecuteSegment(ctx context.Context, is IndexedSegment, q *pql.Query, tableSchema *segment.Schema, opt Options) (*Intermediate, error) {
	env := newExecEnv(ctx, is.Seg.Name())
	if err := env.checkpoint(); err != nil {
		return nil, err
	}
	cs := columnSource{seg: is.Seg, schema: tableSchema}
	run := func() (*Intermediate, error) {
		if q.IsAggregation() {
			inputs, err := newAggInputs(env, cs, q.Select, opt)
			if err != nil {
				return nil, err
			}
			exprs := make([]pql.Expression, len(inputs))
			for i, in := range inputs {
				exprs[i] = in.expr
			}
			return executeGroupBy(env, cs, is, q, inputs, exprs, opt)
		}
		return executeSelection(env, cs, is, q, opt)
	}
	res, err := run()
	if err != nil {
		return nil, err
	}
	// A GROUP BY's group state is its table's own size, taken once the keys
	// are values, whichever plan filled it; without GROUP BY there is none.
	if q.HasGroupBy() {
		res.Stats.GroupStateBytes = res.Groups.sizeBytes()
	}
	if env.dictExprUsed {
		res.Stats.DictExprSegments = 1
	}
	return res, nil
}

func baseStats(seg segment.Reader) Stats {
	return Stats{NumSegmentsQueried: 1, TotalDocs: int64(seg.NumDocs())}
}

// executeGroupBy runs an aggregation over one segment into a GroupTable of
// one key column per GROUP BY item. Without GROUP BY there is no item and no
// group to find: every document folds into row 0.
func executeGroupBy(env *execEnv, cs columnSource, is IndexedSegment, q *pql.Query, inputs []aggInput, exprs []pql.Expression, opt Options) (*Intermediate, error) {
	t := NewGroupTable(len(q.GroupBy), exprs)
	out := &Intermediate{Kind: KindGroupBy, AggExprs: exprs, GroupCols: q.GroupBy, Groups: t}
	out.Stats = baseStats(is.Seg)

	// Metadata-only plan: no filter, no group and all aggregations answerable
	// from column statistics.
	if q.Filter == nil && !q.HasGroupBy() && !opt.DisableMetadataPlans && metadataAnswerable(inputs) {
		answerFromMetadata(t, inputs, is.Seg.NumDocs())
		out.Stats.NumSegmentsMatched = 1
		out.Stats.MetadataOnlySegments = 1
		return out, nil
	}

	items := make([]groupItem, len(q.GroupBy))
	for i, name := range q.GroupBy {
		if e := q.GroupByExprs; i < len(e) && e[i] != nil {
			ev, err := newExprEval(env, cs, e[i], opt)
			if err != nil {
				return nil, err
			}
			items[i] = groupItem{ev: ev}
			continue
		}
		col, err := cs.column(name)
		if err != nil {
			return nil, err
		}
		if !col.Spec().SingleValue {
			return nil, fmt.Errorf("query: GROUP BY on multi-value column %q is not supported", name)
		}
		if !col.HasDictionary() {
			return nil, fmt.Errorf("query: GROUP BY on raw column %q is not supported", name)
		}
		items[i] = groupItem{col: col}
	}

	// Star-tree plan. planStarTree declines expression group-bys (their
	// rendered text never matches a split dimension), so items[i].col is
	// always set when this plan runs, and a record's dimension values are
	// ids of those columns' dictionaries. Each record adds straight into the
	// state columns: COUNT its documents, SUM and AVG its metric's sum too.
	if plan, ok := planStarTree(cs, is, q, inputs, opt); ok {
		for c := range t.keys {
			t.keys[c].kind = keyDictID
		}
		matched := false
		scanned := plan.run(func(rec int) {
			matched = true
			var ord uint32
			if len(items) > 0 {
				for c, d := range plan.groupDims {
					t.keys[c].nums = append(t.keys[c].nums, uint64(plan.tree.DimValue(rec, d)))
				}
				var isNew bool
				if ord, isNew = t.commit(); isNew {
					t.addStates()
				}
			}
			n := plan.tree.Count(rec)
			for i, mi := range plan.metricIdx {
				var sum float64
				if mi >= 0 {
					sum = plan.tree.Sum(rec, mi)
				}
				t.aggs[i].addRecord(ord, n, sum)
			}
		})
		t.decodeKeys(items)
		if matched {
			out.Stats.NumSegmentsMatched = 1
		}
		out.Stats.StarTreeSegments = 1
		out.Stats.StarTreeRecordsScanned = int64(scanned)
		out.Stats.StarTreeRawDocs = int64(plan.tree.NumRawDocs())
		return out, nil
	}

	set, err := buildFilter(env, cs, q.Filter, opt, &out.Stats)
	if err != nil {
		return nil, err
	}
	sc := getScratch()
	defer sc.release()
	est := set.estimate()
	kernels := make([]*aggKernel, len(inputs))
	for i, in := range inputs {
		kernels[i] = newAggKernel(in, est, sc)
	}
	var g grouper
	if len(items) > 0 {
		g = newItemGrouper(items, t, sc)
	}
	it := set.iterator(sc)
	buf := sc.docBuf(blockSize)
	ords := sc.ordBuf(blockSize)
	// Each block resolves to group ordinals, then each aggregation kernel
	// folds its values into the rows those name; without GROUP BY there is
	// nothing to resolve and every block folds into row 0. Cancellation is
	// polled once per block.
	var docs int64
	for {
		if err := env.checkpoint(); err != nil {
			return nil, err
		}
		n := it.nextBlock(buf)
		if n == 0 {
			break
		}
		docs += int64(n)
		if g != nil {
			if err := g.groups(buf[:n], ords[:n]); err != nil {
				// A key the table cannot hold: the next checkpoint ends the
				// segment.
				env.fail(err)
				continue
			}
			t.addStates()
		}
		for i, k := range kernels {
			k.prepare(buf[:n])
			if g == nil {
				k.accumulateBlock(&t.aggs[i], n)
			} else {
				k.accumulateGroups(&t.aggs[i], ords[:n])
			}
		}
	}
	t.decodeKeys(items)
	// A final checkpoint surfaces an expression error latched in the last
	// partial block.
	if err := env.checkpoint(); err != nil {
		return nil, err
	}
	out.Stats.NumDocsScanned = docs
	out.Stats.NumEntriesScanned += docs * int64(len(inputs)+len(items))
	if docs > 0 {
		out.Stats.NumSegmentsMatched = 1
	}
	return out, nil
}

// selectionColumns returns the columns a selection's rows carry: the select
// list, '*' expanded to the schema's fields in their order, then the ORDER BY
// columns outside it, counted in hidden: they are fetched as trailing columns
// and dropped after the final sort.
func selectionColumns(q *pql.Query, schema *segment.Schema) (cols []string, hidden int) {
	if len(q.Select) == 1 && q.Select[0].Column == "*" {
		if schema != nil {
			for _, f := range schema.Fields {
				cols = append(cols, f.Name)
			}
		}
	} else {
		for _, e := range q.Select {
			cols = append(cols, e.Column)
		}
	}
	for _, o := range q.OrderBy {
		if !slices.Contains(cols, o.Column) {
			cols = append(cols, o.Column)
			hidden++
		}
	}
	return cols, hidden
}

func executeSelection(env *execEnv, cs columnSource, is IndexedSegment, q *pql.Query, opt Options) (*Intermediate, error) {
	schema := is.Seg.Schema()
	if cs.schema != nil {
		schema = cs.schema
	}
	cols, hidden := selectionColumns(q, schema)
	out := &Intermediate{Kind: KindSelection, SelectCols: cols, HiddenCols: hidden}
	out.Stats = baseStats(is.Seg)

	readers := make([]segment.ColumnReader, len(cols))
	for i, name := range cols {
		col, err := cs.column(name)
		if err != nil {
			return nil, err
		}
		readers[i] = col
	}
	set, err := buildFilter(env, cs, q.Filter, opt, &out.Stats)
	if err != nil {
		return nil, err
	}
	// Keep enough rows for the broker to apply offset+limit after the
	// merge. Without ORDER BY the first rows win; with ORDER BY rows are
	// re-sorted at finalize, so each segment contributes its best
	// offset+limit rows (a superset of what could be needed).
	keep := q.Offset + q.Limit
	needAll := len(q.OrderBy) > 0
	// Rows of each block share one []any arena, allocated fresh per block
	// (retained rows alias it, so it is never reused, unlike the pooled
	// scratch the columns decode through) and filled column-major so each
	// column decodes in one batch. Without ORDER BY the block demand is
	// capped at the rows still needed: with the exact-fill nextBlock contract
	// the segment walks no document past the last row it keeps.
	sc := getScratch()
	defer sc.release()
	it := set.iterator(sc)
	width := len(readers)
	var mvBuf []int
	var docs int64
	for {
		if err := env.checkpoint(); err != nil {
			return nil, err
		}
		want := blockSize
		if !needAll {
			want = keep - len(out.Rows)
			if want < 1 {
				want = 1
			}
			if want > blockSize {
				want = blockSize
			}
		}
		block := sc.docBuf(want)
		n := it.nextBlock(block)
		if n == 0 {
			break
		}
		docs += int64(n)
		block = block[:n]
		arena := make([]any, n*width)
		for c, col := range readers {
			f := col.Spec()
			switch {
			case f.Kind == segment.Metric && f.Type.Integral():
				vs := sc.longBuf(n)
				col.Longs(block, vs)
				for i, v := range vs {
					arena[i*width+c] = v
				}
			case f.Kind == segment.Metric:
				vs := sc.doubleBuf(n)
				col.Doubles(block, vs)
				for i, v := range vs {
					arena[i*width+c] = v
				}
			case f.SingleValue:
				vs := sc.idBuf(0, n)
				col.DictIDs(block, vs)
				for i, id := range vs {
					arena[i*width+c] = col.Value(int(id))
				}
			default:
				for i, doc := range block {
					mvBuf = col.DictIDsMV(doc, mvBuf[:0])
					vals := make([]any, len(mvBuf))
					for j, id := range mvBuf {
						vals[j] = col.Value(id)
					}
					arena[i*width+c] = vals
				}
			}
		}
		for i := 0; i < n; i++ {
			out.Rows = append(out.Rows, arena[i*width:(i+1)*width:(i+1)*width])
		}
		if !needAll && len(out.Rows) >= keep {
			break
		}
		if needAll && len(out.Rows) > 4*keep {
			// Prune: sort and keep the best rows so memory stays bounded on
			// large matches.
			tmp := &Intermediate{Kind: KindSelection, SelectCols: out.SelectCols, Rows: out.Rows}
			pruneQ := *q
			pruneQ.Offset, pruneQ.Limit = 0, keep
			out.Rows = tmp.Finalize(&pruneQ).Rows
		}
	}
	// The early-exit break (LIMIT satisfied) skips this on purpose: rows
	// already kept are valid even when a later candidate's expression filter
	// latched an error.
	if len(out.Rows) < keep || needAll {
		if err := env.checkpoint(); err != nil {
			return nil, err
		}
	}
	out.Stats.NumDocsScanned = docs
	out.Stats.NumEntriesScanned += docs * int64(len(readers))
	if docs > 0 {
		out.Stats.NumSegmentsMatched = 1
	}
	return out, nil
}

// starTreePlan is a resolved star-tree execution: per-dimension matchers and
// the metric index for each aggregation.
type starTreePlan struct {
	tree      *startree.Tree
	matchers  map[int]startree.IDMatcher
	groupDims []int
	metricIdx []int // per aggregation input; -1 for COUNT
}

func (p *starTreePlan) run(visit func(rec int)) int {
	return p.tree.Scan(p.matchers, p.groupDims, visit)
}

// planStarTree decides whether the segment's star-tree can answer the query
// (paper 4.3: "if a user specifies a query that can be optimized by using
// the star-tree structure, we transparently use it") and builds the plan.
func planStarTree(cs columnSource, is IndexedSegment, q *pql.Query, inputs []aggInput, opt Options) (*starTreePlan, bool) {
	tree := is.Tree
	if tree == nil || opt.DisableStarTree {
		return nil, false
	}
	// Every aggregation must be COUNT, or SUM/AVG over a tree metric.
	metricIdx := make([]int, len(inputs))
	for i, in := range inputs {
		switch in.expr.Func {
		case pql.Count:
			metricIdx[i] = -1
		case pql.Sum, pql.Avg:
			mi := tree.MetricIndex(in.expr.Column)
			if mi < 0 {
				return nil, false
			}
			metricIdx[i] = mi
		default:
			return nil, false
		}
	}
	// Every group-by column must be a split dimension.
	groupDims := make([]int, len(q.GroupBy))
	for i, g := range q.GroupBy {
		d := tree.DimIndex(g)
		if d < 0 {
			return nil, false
		}
		groupDims[i] = d
	}
	// The filter must decompose into per-split-dimension predicates.
	matchers := map[int]startree.IDMatcher{}
	if q.Filter != nil {
		perCol, ok := decomposeFilter(q.Filter)
		if !ok {
			return nil, false
		}
		for col, preds := range perCol {
			d := tree.DimIndex(col)
			if d < 0 {
				return nil, false
			}
			reader, err := cs.column(col)
			if err != nil || !reader.HasDictionary() {
				return nil, false
			}
			// AND together this column's predicates.
			var sets []*idSet
			for _, pred := range preds {
				set, err := compileLeaf(reader, pred)
				if err != nil {
					return nil, false
				}
				sets = append(sets, set)
			}
			matchers[d] = func(id int32) bool {
				for _, s := range sets {
					if !s.contains(int(id)) {
						return false
					}
				}
				return true
			}
		}
	}
	return &starTreePlan{tree: tree, matchers: matchers, groupDims: groupDims, metricIdx: metricIdx}, true
}

// decomposeFilter flattens a filter into per-column predicate conjunctions.
// It succeeds for trees of ANDs whose OR subtrees reference a single column
// (e.g. the Figure 10 query) and contain no NOT.
func decomposeFilter(p pql.Predicate) (map[string][]pql.Predicate, bool) {
	out := map[string][]pql.Predicate{}
	var walk func(p pql.Predicate) bool
	walk = func(p pql.Predicate) bool {
		switch n := p.(type) {
		case pql.And:
			for _, c := range n.Children {
				if !walk(c) {
					return false
				}
			}
			return true
		case pql.Or:
			cols := pql.PredicateColumns(n)
			if len(cols) != 1 {
				return false
			}
			// A single-column OR becomes an IN-like predicate: the
			// union of child matches. Rewrite as one pseudo-leaf.
			if !orIsLeafOnly(n) {
				return false
			}
			out[cols[0]] = append(out[cols[0]], orAsIn(n, cols[0]))
			return true
		case pql.Not:
			return false
		case pql.Comparison:
			out[n.Column] = append(out[n.Column], n)
			return true
		case pql.In:
			out[n.Column] = append(out[n.Column], n)
			return true
		case pql.Between:
			out[n.Column] = append(out[n.Column], n)
			return true
		}
		return false
	}
	if !walk(p) {
		return nil, false
	}
	return out, true
}

func orIsLeafOnly(o pql.Or) bool {
	for _, c := range o.Children {
		switch n := c.(type) {
		case pql.Comparison:
			if n.Op != pql.OpEq {
				return false
			}
		case pql.In:
			if n.Negated {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func orAsIn(o pql.Or, col string) pql.Predicate {
	var values []any
	for _, c := range o.Children {
		switch n := c.(type) {
		case pql.Comparison:
			values = append(values, n.Value)
		case pql.In:
			values = append(values, n.Values...)
		}
	}
	return pql.In{Column: col, Values: values}
}

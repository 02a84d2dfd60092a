package query

import (
	"fmt"

	"pinot/internal/bitmap"
	"pinot/internal/pql"
	"pinot/internal/segment"
)

// Options tune physical planning. The zero value is standard Pinot
// behaviour; the Druid baseline flips ForceBitmap/DisableSorted/
// DisableStarTree to model Druid's execution (paper section 6).
type Options struct {
	// ForceBitmap always evaluates dictionary predicates through the
	// inverted index when one exists, even when a sorted-range or scan
	// plan would be cheaper.
	ForceBitmap bool
	// DisableSorted ignores physical sort order during planning.
	DisableSorted bool
	// DisableStarTree ignores star-tree indexes during planning.
	DisableStarTree bool
	// DisableMetadataPlans disables metadata-only answers (COUNT(*) etc).
	DisableMetadataPlans bool
	// DisablePruning turns off zone-map / bloom / time-range segment
	// pruning and the provably-matches-all filter elision that feeds the
	// metadata-only plans. Rows are identical either way; the flag exists
	// for differential testing and to keep the Druid baseline pruning-free.
	DisablePruning bool

	// The rungs tests force off (export_test.go), never set in production:
	// disableExprCompile evaluates every expression on the sandboxed per-row
	// interpreter instead of a compiled block kernel; disableDictExpr keeps
	// expression predicates, group keys and aggregate arguments out of
	// dictionary space, on the kernel or the interpreter. Rows are identical
	// either way; Stats differ only as the differential harness's rung table
	// allows.
	disableExprCompile, disableDictExpr bool
}

// columnsOf resolves a column, surfacing schema-evolution default columns
// for fields the segment predates.
type columnSource struct {
	seg    segment.Reader
	schema *segment.Schema // table-level schema, may be newer than segment's
}

func (cs columnSource) column(name string) (segment.ColumnReader, error) {
	if c := cs.seg.Column(name); c != nil {
		return c, nil
	}
	if cs.schema != nil {
		if f, ok := cs.schema.Field(name); ok {
			return segment.NewDefaultColumn(f, cs.seg.NumDocs()), nil
		}
	}
	return nil, fmt.Errorf("query: unknown column %q", name)
}

// buildFilter compiles a predicate tree into a physical doc-id set for one
// segment, choosing operators per paper section 4.2: sorted-column ranges
// first, inverted-index bitmaps next, iterator scans as fallback.
func buildFilter(env *execEnv, cs columnSource, pred pql.Predicate, opt Options, stats *Stats) (docIDSet, error) {
	n := cs.seg.NumDocs()
	if pred == nil {
		return &allDocIDSet{numDocs: n}, nil
	}
	switch p := pred.(type) {
	case pql.And:
		children := make([]docIDSet, 0, len(p.Children))
		for _, c := range p.Children {
			child, err := buildFilter(env, cs, c, opt, stats)
			if err != nil {
				return nil, err
			}
			if _, empty := child.(emptyDocIDSet); empty {
				return emptyDocIDSet{}, nil
			}
			if _, all := child.(*allDocIDSet); all {
				continue
			}
			children = append(children, child)
		}
		children = collapseBitmapChildren(children, true)
		switch len(children) {
		case 0:
			return &allDocIDSet{numDocs: n}, nil
		case 1:
			return children[0], nil
		}
		return &andDocIDSet{children: children}, nil
	case pql.Or:
		children := make([]docIDSet, 0, len(p.Children))
		for _, c := range p.Children {
			child, err := buildFilter(env, cs, c, opt, stats)
			if err != nil {
				return nil, err
			}
			if _, all := child.(*allDocIDSet); all {
				return child, nil
			}
			if _, empty := child.(emptyDocIDSet); empty {
				continue
			}
			children = append(children, child)
		}
		children = collapseBitmapChildren(children, false)
		switch len(children) {
		case 0:
			return emptyDocIDSet{}, nil
		case 1:
			return children[0], nil
		}
		return &orDocIDSet{children: children}, nil
	case pql.Not:
		child, err := buildFilter(env, cs, p.Child, opt, stats)
		if err != nil {
			return nil, err
		}
		return &notDocIDSet{child: child, numDocs: n}, nil
	case pql.ExprCompare:
		// Dictionary space first: a deterministic single-dict-column
		// comparison compiles to the same idSet machinery as a plain
		// predicate, pruning and short-circuiting without touching rows.
		if col, set, ok := dictExprIDSet(cs, p, opt); ok {
			env.dictExprUsed = true
			return serveIDSet(col, set, n, opt, stats), nil
		}
		return buildExprFilter(env, cs, p, opt, stats)
	default:
		return buildLeafFilter(cs, pred, opt, stats)
	}
}

// collapseBitmapChildren merges pure-bitmap AND/OR children into one bitmap
// via container-level And/Or, which beats the leapfrog when the inputs are of
// comparable size (one 64-bit word op covers 64 candidate docs). ORs always
// win; ANDs only when the smallest bitmap still spans at least a block and
// the sizes are within 64x, otherwise leapfrogging from the small side skips
// most of the large bitmap. Stats are unaffected: bitmap iteration counts no
// entries (posting reads were charged at build time) and the candidate
// sequence probing any remaining scan children depends only on the combined
// member set, which collapse preserves.
func collapseBitmapChildren(children []docIDSet, isAnd bool) []docIDSet {
	var bms []*bitmap.Bitmap
	rest := make([]docIDSet, 0, len(children))
	for _, c := range children {
		if b, ok := c.(*bitmapDocIDSet); ok {
			bms = append(bms, b.bm)
		} else {
			rest = append(rest, c)
		}
	}
	if len(bms) < 2 {
		return children
	}
	if isAnd {
		minC, maxC := bms[0].Cardinality(), bms[0].Cardinality()
		for _, bm := range bms[1:] {
			c := bm.Cardinality()
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
		if minC < blockSize || maxC > minC*64 {
			return children
		}
		return append(rest, &bitmapDocIDSet{bm: bitmap.AndAll(bms...)})
	}
	return append(rest, &bitmapDocIDSet{bm: bitmap.OrAll(bms...)})
}

func buildLeafFilter(cs columnSource, pred pql.Predicate, opt Options, stats *Stats) (docIDSet, error) {
	name := pql.PredicateColumns(pred)
	if len(name) != 1 {
		return nil, fmt.Errorf("query: leaf predicate must reference one column, got %v", name)
	}
	col, err := cs.column(name[0])
	if err != nil {
		return nil, err
	}
	n := cs.seg.NumDocs()

	// Raw (no-dictionary) columns can only be scanned.
	if !col.HasDictionary() {
		leaf, err := newRawLeaf(col, pred, stats)
		if err != nil {
			return nil, err
		}
		return &scanDocIDSet{numDocs: n, leaf: leaf}, nil
	}

	// Multi-value columns have contains-any semantics: negated predicates
	// must complement at the document level, not the dictionary level.
	if !col.Spec().SingleValue {
		if pos, negated := positiveForm(pred); negated {
			child, err := buildLeafFilter(cs, pos, opt, stats)
			if err != nil {
				return nil, err
			}
			return &notDocIDSet{child: child, numDocs: n}, nil
		}
	}

	set, err := compileLeaf(col, pred)
	if err != nil {
		return nil, err
	}
	return serveIDSet(col, set, n, opt, stats), nil
}

// scanSelectivityCutoff is the fraction of segment documents above which an
// inverted-index plan falls back to an iterator scan (paper 4.2: scanning
// beats bitmap operations on large bitmaps).
const scanSelectivityCutoff = 0.4

// serveIDSet picks the physical operator for a compiled dict-id set —
// the operator ladder of paper section 4.2, shared by plain-column leaf
// predicates and dictionary-space expression predicates.
func serveIDSet(col segment.ColumnReader, set *idSet, n int, opt Options, stats *Stats) docIDSet {
	switch {
	case set.isEmpty():
		return emptyDocIDSet{}
	case set.isAll():
		// Predicate matches every value of the segment — the special
		// case called out in paper 3.3.4.
		return &allDocIDSet{numDocs: n}
	}

	// Sorted physical order: contiguous doc ranges, cheapest operator.
	if !opt.DisableSorted && !opt.ForceBitmap && col.IsSorted() {
		var ranges []segment.DocRange
		set.eachRange(func(lo, hi int) {
			s, e := col.DocIDRange(lo, hi)
			switch {
			case s == e:
			case len(ranges) > 0 && ranges[len(ranges)-1].End == s:
				ranges[len(ranges)-1].End = e
			default:
				ranges = append(ranges, segment.DocRange{Start: s, End: e})
			}
		})
		return &rangeDocIDSet{ranges: ranges}
	}

	// Inverted index, unless the expected posting mass is so large that
	// an iterator scan is cheaper (paper 4.2).
	if col.HasInverted() {
		expected := float64(set.size()) / float64(max(col.Cardinality(), 1))
		if opt.ForceBitmap || expected <= scanSelectivityCutoff {
			bm := unionBitmaps(col, set)
			if stats != nil {
				stats.NumEntriesScanned += int64(bm.Cardinality())
			}
			return &bitmapDocIDSet{bm: bm}
		}
	}

	// Iterator scan over the forward index. Every evaluated document
	// counts as a scanned entry; a multi-value document, each of its values.
	if col.Spec().SingleValue {
		return &scanDocIDSet{numDocs: n, leaf: newIDSetLeaf(col, set, stats)}
	}
	var buf []int
	return &scanDocIDSet{numDocs: n, match: func(doc int) bool {
		buf = col.DictIDsMV(doc, buf[:0])
		if stats != nil {
			stats.NumEntriesScanned += int64(len(buf))
		}
		for _, id := range buf {
			if set.contains(id) {
				return true
			}
		}
		return false
	}}
}

// positiveForm rewrites a negated leaf predicate into its positive
// counterpart, reporting whether a rewrite happened.
func positiveForm(pred pql.Predicate) (pql.Predicate, bool) {
	switch p := pred.(type) {
	case pql.Comparison:
		if p.Op == pql.OpNeq {
			return pql.Comparison{Column: p.Column, Op: pql.OpEq, Value: p.Value}, true
		}
	case pql.In:
		if p.Negated {
			return pql.In{Column: p.Column, Values: p.Values}, true
		}
	}
	return pred, false
}

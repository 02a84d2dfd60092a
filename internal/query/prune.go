package query

import (
	"math"

	"pinot/internal/pql"
	"pinot/internal/segment"
)

// Segment pruning: before a segment is dispatched to the execution engine,
// its filter is evaluated against the segment's persisted zone maps (typed
// per-column min/max plus dictionary bloom filters) and time range. Three
// outcomes are possible, mirroring Pinot's server-side pruners:
//
//   - matchNone: the filter provably matches no document — the segment is
//     skipped entirely (SegmentsPrunedByServer for the time-range tier,
//     SegmentsPrunedByValue for the zone-map/bloom tier).
//   - matchAll: the filter provably matches every document — the segment
//     executes with the filter elided, which lets COUNT/MIN/MAX fall into
//     the metadata-only plan and spares every other shape the predicate
//     evaluation.
//   - matchSome: nothing can be proven — the segment executes normally.
//
// Decisions must be exactly consistent with execution semantics: multi-value
// columns have contains-any semantics with negations complemented at the
// document level (mirroring buildLeafFilter), unknown columns and uncoercible
// literals degrade to matchSome so query errors still surface, and segments
// without persisted metadata (consuming/mutable segments, schema-evolution
// default columns) are never pruned.

// matchOutcome is the three-valued result of evaluating a filter against
// segment metadata.
type matchOutcome uint8

const (
	matchSome matchOutcome = iota
	matchNone
	matchAll
)

// invert complements an outcome at the document level (NOT semantics).
func (m matchOutcome) invert() matchOutcome {
	switch m {
	case matchNone:
		return matchAll
	case matchAll:
		return matchNone
	}
	return matchSome
}

// zoneReader is the metadata surface pruning runs against. Immutable
// segments implement it; mutable (consuming) segments do not and are never
// pruned — their min/max grow as rows arrive, so a decision could be stale
// by execution time.
type zoneReader interface {
	ColumnMeta(name string) *segment.ColumnMetadata
}

// pruneEvalExpr evaluates a filter tree against a segment's zone maps, with
// an optional evaluator for expression leaves. exprLeaf (when non-nil) resolves an expression comparison to a
// document-exact outcome — dictionary-space evaluation can prove a leaf
// matches no dictionary entry (matchNone) or every one (matchAll); nil or
// any undecidable shape degrades to matchSome, the pre-dictionary behavior.
func pruneEvalExpr(zr zoneReader, pred pql.Predicate, exprLeaf func(pql.ExprCompare) matchOutcome) matchOutcome {
	if pred == nil {
		return matchAll
	}
	switch p := pred.(type) {
	case pql.And:
		out := matchAll
		for _, c := range p.Children {
			switch pruneEvalExpr(zr, c, exprLeaf) {
			case matchNone:
				return matchNone
			case matchSome:
				out = matchSome
			}
		}
		return out
	case pql.Or:
		out := matchNone
		for _, c := range p.Children {
			switch pruneEvalExpr(zr, c, exprLeaf) {
			case matchAll:
				return matchAll
			case matchSome:
				out = matchSome
			}
		}
		return out
	case pql.Not:
		return pruneEvalExpr(zr, p.Child, exprLeaf).invert()
	case pql.Comparison, pql.In, pql.Between:
		return pruneLeaf(zr, pred)
	case pql.ExprCompare:
		if exprLeaf != nil {
			return exprLeaf(p)
		}
	}
	return matchSome
}

// pruneLeaf evaluates one leaf predicate against a column's zone map.
func pruneLeaf(zr zoneReader, pred pql.Predicate) matchOutcome {
	cols := pql.PredicateColumns(pred)
	if len(cols) != 1 {
		return matchSome
	}
	cm := zr.ColumnMeta(cols[0])
	if cm == nil || cm.Zone == nil {
		return matchSome
	}
	if !cm.SingleValue {
		// Multi-value semantics are contains-any, and the executor
		// rewrites negated MV leaves to document-level complements of
		// their positive form (buildLeafFilter). Prune the same shape:
		// for the positive form, matchNone means no element of any doc
		// matches, and matchAll means every element matches (each doc has
		// at least one element) — both transfer to the doc level.
		if pos, negated := positiveForm(pred); negated {
			return pruneLeaf(zr, pos).invert()
		}
	}
	z := cm.Zone
	coerce := func(raw any) (any, bool) {
		v, err := segment.Canonicalize(z.Type, raw)
		return v, err == nil
	}
	min, max := z.Min(), z.Max()
	constant := segment.CompareValues(min, max) == 0

	switch p := pred.(type) {
	case pql.Comparison:
		v, ok := coerce(p.Value)
		if !ok {
			return matchSome // execution surfaces the coercion error
		}
		cmpMin := segment.CompareValues(v, min)
		cmpMax := segment.CompareValues(v, max)
		switch p.Op {
		case pql.OpEq:
			if cmpMin < 0 || cmpMax > 0 || !z.Bloom.MayContain(v) {
				return matchNone
			}
			if constant {
				return matchAll // every value equals min == max == v
			}
		case pql.OpNeq:
			if cmpMin < 0 || cmpMax > 0 || !z.Bloom.MayContain(v) {
				return matchAll // v provably absent
			}
			if constant {
				return matchNone
			}
		case pql.OpLt:
			if cmpMax > 0 {
				return matchAll
			}
			if cmpMin <= 0 {
				return matchNone
			}
		case pql.OpLte:
			if cmpMax >= 0 {
				return matchAll
			}
			if cmpMin < 0 {
				return matchNone
			}
		case pql.OpGt:
			if cmpMin < 0 {
				return matchAll
			}
			if cmpMax >= 0 {
				return matchNone
			}
		case pql.OpGte:
			if cmpMin <= 0 {
				return matchAll
			}
			if cmpMax > 0 {
				return matchNone
			}
		}
		return matchSome
	case pql.Between:
		lo, okL := coerce(p.Lo)
		hi, okH := coerce(p.Hi)
		if !okL || !okH {
			return matchSome
		}
		if segment.CompareValues(lo, hi) > 0 {
			return matchNone // empty range matches nothing
		}
		if segment.CompareValues(hi, min) < 0 || segment.CompareValues(lo, max) > 0 {
			return matchNone
		}
		if segment.CompareValues(lo, min) <= 0 && segment.CompareValues(hi, max) >= 0 {
			return matchAll
		}
		return matchSome
	case pql.In:
		present := false // any listed value possibly in the column
		hitMin := false  // some listed value equals min (== max when constant)
		for _, raw := range p.Values {
			v, ok := coerce(raw)
			if !ok {
				return matchSome
			}
			if segment.CompareValues(v, min) >= 0 && segment.CompareValues(v, max) <= 0 && z.Bloom.MayContain(v) {
				present = true
				if segment.CompareValues(v, min) == 0 {
					hitMin = true
				}
			}
		}
		if p.Negated {
			// Document matches iff its value is not listed.
			switch {
			case !present:
				return matchAll // no listed value occurs in the column
			case constant && hitMin:
				return matchNone // the only value is listed
			}
			return matchSome
		}
		switch {
		case !present:
			return matchNone
		case constant && hitMin:
			return matchAll
		}
		return matchSome
	}
	return matchSome
}

// TimeBounds extracts the inclusive [lo, hi] interval that a filter's
// top-level conjuncts impose on a column. Any matching document must carry a
// column value inside the interval, so a segment whose [min, max] range does
// not overlap it can be dropped — the broker's time-boundary pruning and the
// server's time-range tier both use it. ok is false when no top-level
// conjunct constrains the column (predicates under OR/NOT are ignored: they
// do not constrain conjunctively).
func TimeBounds(p pql.Predicate, column string) (lo, hi int64, ok bool) {
	lo, hi = math.MinInt64, math.MaxInt64
	found := false
	var walk func(p pql.Predicate)
	walk = func(p pql.Predicate) {
		switch n := p.(type) {
		case pql.And:
			for _, c := range n.Children {
				walk(c)
			}
		case pql.Comparison:
			if n.Column != column {
				return
			}
			v, err := segment.Canonicalize(segment.TypeLong, n.Value)
			if err != nil {
				return
			}
			x := v.(int64)
			switch n.Op {
			case pql.OpEq:
				found = true
				if x > lo {
					lo = x
				}
				if x < hi {
					hi = x
				}
			case pql.OpLt:
				if x == math.MinInt64 {
					return
				}
				found = true
				if x-1 < hi {
					hi = x - 1
				}
			case pql.OpLte:
				found = true
				if x < hi {
					hi = x
				}
			case pql.OpGt:
				if x == math.MaxInt64 {
					return
				}
				found = true
				if x+1 > lo {
					lo = x + 1
				}
			case pql.OpGte:
				found = true
				if x > lo {
					lo = x
				}
			}
		case pql.Between:
			if n.Column != column {
				return
			}
			l, errL := segment.Canonicalize(segment.TypeLong, n.Lo)
			h, errH := segment.Canonicalize(segment.TypeLong, n.Hi)
			if errL != nil || errH != nil {
				return
			}
			found = true
			if x := l.(int64); x > lo {
				lo = x
			}
			if x := h.(int64); x < hi {
				hi = x
			}
		}
	}
	if p != nil {
		walk(p)
	}
	return lo, hi, found
}

// prunePlan is the outcome of evaluating the pruning tiers over an engine's
// candidate segments.
type prunePlan struct {
	// keep are the segments to execute, paired with the query each should
	// run (the original, or a filter-elided copy when the filter provably
	// matches every document of that segment).
	keep    []IndexedSegment
	queries []*pql.Query
	// stats accounts for every candidate: pruned segments contribute
	// NumSegmentsQueried/TotalDocs here (they were candidates even though
	// no executor ever saw them), kept segments contribute SegmentsMatched.
	stats Stats
}

// planPruning runs the server-side pruning tiers over the candidate
// segments. Tier one drops segments whose persisted time range cannot
// overlap the filter's conjunctive time bounds (SegmentsPrunedByServer);
// tier two evaluates the full filter tree against per-column zone maps and
// bloom filters (SegmentsPrunedByValue). Filters proven to match all
// documents are elided so the metadata-only aggregation plan can fire.
func planPruning(q *pql.Query, segs []IndexedSegment, tableSchema *segment.Schema, opt Options) prunePlan {
	plan := prunePlan{keep: make([]IndexedSegment, 0, len(segs)), queries: make([]*pql.Query, 0, len(segs))}
	var noFilter *pql.Query
	timeLo, timeHi := int64(math.MinInt64), int64(math.MaxInt64)
	timeBounded := false
	hasExprLeaf := false
	if q.Filter != nil {
		timeCol := ""
		if tableSchema != nil {
			timeCol = tableSchema.TimeColumn()
		}
		if timeCol != "" {
			timeLo, timeHi, timeBounded = TimeBounds(q.Filter, timeCol)
		}
		hasExprLeaf = !opt.disableDictExpr && pql.PredicateHasExprCompare(q.Filter)
	}
	for _, is := range segs {
		zr, ok := is.Seg.(zoneReader)
		if !ok {
			// Mutable/consuming segment: candidate, never pruned.
			plan.stats.SegmentsMatched++
			plan.keep = append(plan.keep, is)
			plan.queries = append(plan.queries, q)
			continue
		}
		if timeBounded {
			if tr, ok := is.Seg.(interface{ TimeRange() (int64, int64, bool) }); ok {
				if minT, maxT, has := tr.TimeRange(); has && (maxT < timeLo || minT > timeHi) {
					plan.stats.SegmentsPrunedByServer++
					plan.stats.NumSegmentsQueried++
					plan.stats.TotalDocs += int64(is.Seg.NumDocs())
					continue
				}
			}
		}
		// Dictionary-space expression leaves: evaluated once per dictionary
		// entry, an expression predicate can prove a segment empty (pruned
		// like a zone-map miss) or full (filter elided). Decisions are
		// document-exact, so they compose under the same three-valued
		// AND/OR/NOT algebra as zone-map leaves.
		var exprLeaf func(pql.ExprCompare) matchOutcome
		exprDecisive := false
		if hasExprLeaf {
			cs := columnSource{seg: is.Seg, schema: tableSchema}
			exprLeaf = func(p pql.ExprCompare) matchOutcome {
				_, set, ok := dictExprIDSet(cs, p, opt)
				if !ok {
					return matchSome
				}
				switch {
				case set.isEmpty():
					exprDecisive = true
					return matchNone
				case set.isAll():
					exprDecisive = true
					return matchAll
				}
				return matchSome
			}
		}
		switch pruneEvalExpr(zr, q.Filter, exprLeaf) {
		case matchNone:
			if exprDecisive {
				plan.stats.DictExprSegments++
			}
			plan.stats.SegmentsPrunedByValue++
			plan.stats.NumSegmentsQueried++
			plan.stats.TotalDocs += int64(is.Seg.NumDocs())
		case matchAll:
			if q.Filter != nil && noFilter == nil {
				elided := *q
				elided.Filter = nil
				noFilter = &elided
			}
			plan.stats.SegmentsMatched++
			plan.keep = append(plan.keep, is)
			if noFilter != nil {
				plan.queries = append(plan.queries, noFilter)
			} else {
				plan.queries = append(plan.queries, q)
			}
		default:
			plan.stats.SegmentsMatched++
			plan.keep = append(plan.keep, is)
			plan.queries = append(plan.queries, q)
		}
	}
	return plan
}

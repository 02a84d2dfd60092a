package query

import (
	"fmt"
	"sync"

	"pinot/internal/pql"
	"pinot/internal/qctx"
)

// Stats are the execution statistics attached to query responses, mirroring
// the counters Pinot reports per query.
type Stats struct {
	NumDocsScanned int64
	// NumEntriesScanned counts the column entries a query tested or read.
	// A scan leaf that drives its filter charges every document it walked,
	// and each later leaf of a conjunction every candidate it tested (the
	// documents the leaves before it matched, up to the last document
	// returned), both times the leaf's perEntry: 1, the columns of an
	// expression comparison, or each value of a multi-value document. An
	// inverted-index leaf charges its postings; the executors one entry per
	// matched document per column they read.
	NumEntriesScanned      int64
	NumSegmentsQueried     int
	NumSegmentsMatched     int
	TotalDocs              int64
	StarTreeSegments       int
	StarTreeRecordsScanned int64
	StarTreeRawDocs        int64
	MetadataOnlySegments   int
	// Segment pruning accounting. Every candidate segment lands in exactly
	// one bucket, so at the engine SegmentsPrunedByServer +
	// SegmentsPrunedByValue + SegmentsMatched equals the candidate count,
	// and at the broker SegmentsPrunedByBroker joins the identity. Pruned
	// segments still count in NumSegmentsQueried and TotalDocs — pruning
	// changes how a segment was answered, not whether it was considered.
	SegmentsPrunedByBroker int // dropped by broker routing (time range / partition metadata)
	SegmentsPrunedByServer int // dropped by the server time-range tier
	SegmentsPrunedByValue  int // dropped by zone-map / bloom-filter evaluation
	SegmentsMatched        int // survived pruning and were dispatched for execution
	// GroupStateBytes is the group-by state a GROUP BY query's segments
	// built: each segment execution's group table size (GroupTable.sizeBytes,
	// taken once its keys are values), summed like every count here. 0
	// without GROUP BY.
	GroupStateBytes int64
	// ResultCacheHit marks a response at least partially served from the
	// broker's query-result cache. It is the ONLY field allowed to differ
	// between a cached response and a cold one; every scan/prune counter
	// above is replayed verbatim from the cached entry.
	ResultCacheHit bool
	// DictExprSegments counts segments where dictionary-space expression
	// planning served a predicate, group key, aggregate argument, or a
	// pruning decision. Forcing expressions out of dictionary space zeroes
	// it; scan, entry and prune counters may then shift where the plan
	// legitimately changes rung, e.g. a pruned-to-empty segment.
	DictExprSegments int
}

// Merge folds another stats block into s.
func (s *Stats) Merge(o Stats) {
	s.NumDocsScanned += o.NumDocsScanned
	s.NumEntriesScanned += o.NumEntriesScanned
	s.NumSegmentsQueried += o.NumSegmentsQueried
	s.NumSegmentsMatched += o.NumSegmentsMatched
	s.TotalDocs += o.TotalDocs
	s.StarTreeSegments += o.StarTreeSegments
	s.StarTreeRecordsScanned += o.StarTreeRecordsScanned
	s.StarTreeRawDocs += o.StarTreeRawDocs
	s.MetadataOnlySegments += o.MetadataOnlySegments
	s.SegmentsPrunedByBroker += o.SegmentsPrunedByBroker
	s.SegmentsPrunedByServer += o.SegmentsPrunedByServer
	s.SegmentsPrunedByValue += o.SegmentsPrunedByValue
	s.SegmentsMatched += o.SegmentsMatched
	s.GroupStateBytes += o.GroupStateBytes
	s.ResultCacheHit = s.ResultCacheHit || o.ResultCacheHit
	s.DictExprSegments += o.DictExprSegments
}

// ResultKind distinguishes the two response shapes.
type ResultKind uint8

// Response shapes: the state of an aggregation, with or without GROUP BY, or
// the rows of a selection.
const (
	KindGroupBy ResultKind = iota
	KindSelection
)

// Intermediate is the mergeable partial result exchanged between segment
// executors, servers, and brokers.
type Intermediate struct {
	Kind      ResultKind
	AggExprs  []pql.Expression
	GroupCols []string
	// Groups is the aggregation's state (grouptable.go): a row per group, nil
	// when there is none; without GROUP BY, no key column and always one row.
	Groups     *GroupTable
	SelectCols []string
	// HiddenCols counts trailing SelectCols fetched only for ORDER BY;
	// Finalize sorts by them and never boxes them.
	HiddenCols int
	// Selection is a selection's rows, one typed column per SelectCols entry
	// (selection.go); nil when there is none.
	Selection *Selection
	Stats     Stats
}

var intermediatePool = sync.Pool{New: func() any { return new(Intermediate) }}

// scratchIntermediate returns a zero Intermediate from the pool fold releases
// a query's per-segment results to.
func scratchIntermediate() *Intermediate { return intermediatePool.Get().(*Intermediate) }

// release puts a per-segment result and its group table back into their
// pools. Only fold calls it, on results no caller holds.
func (r *Intermediate) release() {
	r.Groups.release()
	*r = Intermediate{}
	intermediatePool.Put(r)
}

// NewAggIntermediate returns the result of an aggregation without GROUP BY
// that no document has been folded into.
func NewAggIntermediate(exprs []pql.Expression) *Intermediate {
	return &Intermediate{Kind: KindGroupBy, AggExprs: exprs, Groups: NewGroupTable(0, exprs)}
}

// Merge folds another partial result of the same shape into r. o is only
// read: r neither changes nor keeps any of its memory, so one result may be
// merged into several accumulators.
func (r *Intermediate) Merge(o *Intermediate) error {
	if o == nil {
		return nil
	}
	if r.Kind != o.Kind {
		return fmt.Errorf("query: cannot merge %v result into %v result", o.Kind, r.Kind)
	}
	r.Stats.Merge(o.Stats)
	switch r.Kind {
	case KindGroupBy:
		if o.Groups.Len() == 0 {
			return nil
		}
		if r.Groups == nil {
			r.Groups = NewGroupTable(len(o.Groups.keys), r.AggExprs)
		}
		return r.Groups.merge(o.Groups)
	case KindSelection:
		var err error
		r.Selection, err = r.Selection.appendRows(o.Selection)
		return err
	}
	return nil
}

// Conforms checks that an intermediate has the shape the query demands; the
// broker uses it to reject corrupted or mismatched server responses before
// merging them (a bad payload must degrade to a per-server failure, never
// poison the merged result).
func (r *Intermediate) Conforms(q *pql.Query) error {
	if r == nil {
		return fmt.Errorf("query: nil result")
	}
	want := KindSelection
	if q.IsAggregation() {
		want = KindGroupBy
	}
	if r.Kind != want {
		return fmt.Errorf("query: result kind %d does not match query kind %d", r.Kind, want)
	}
	nAggs := 0
	for _, e := range q.Select {
		if e.IsAgg {
			nAggs++
		}
	}
	switch r.Kind {
	case KindGroupBy:
		if len(r.AggExprs) != nAggs {
			return fmt.Errorf("query: group-by aggregation arity %d, want %d", len(r.AggExprs), nAggs)
		}
		t := r.Groups
		if t != nil && (len(t.aggs) != nAggs || len(t.keys) != len(q.GroupBy)) {
			return fmt.Errorf("query: group-by of %d keys and %d aggregates, want %d and %d", len(t.keys), len(t.aggs), len(q.GroupBy), nAggs)
		}
		if !q.HasGroupBy() && t.Len() != 1 {
			return fmt.Errorf("query: aggregation without GROUP BY of %d rows, want 1", t.Len())
		}
	case KindSelection:
		return r.Selection.conforms(len(r.SelectCols))
	}
	return nil
}

// Result is a finalized query response.
type Result struct {
	Columns    []string
	Rows       [][]any
	Stats      Stats
	Partial    bool
	Exceptions []string
	// TimeMillis is filled by brokers with end-to-end latency.
	TimeMillis int64
	// QueryID correlates this response with server-side logs and traces.
	QueryID string
	// Trace is the per-phase time ledger accumulated in the QueryContext
	// across the layers the query crossed.
	Trace qctx.Trace
}

// Finalize converts a merged intermediate into the client-visible result.
func (r *Intermediate) Finalize(q *pql.Query) *Result {
	out := &Result{Stats: r.Stats}
	switch r.Kind {
	case KindGroupBy:
		out.Columns = append(out.Columns, r.GroupCols...)
		for _, e := range r.AggExprs {
			out.Columns = append(out.Columns, e.String())
		}
		// Pinot's group-by returns the TOP n groups ordered by the
		// first aggregation, descending.
		top := q.Top
		if top <= 0 {
			top = pql.DefaultTop
		}
		out.Rows = r.Groups.top(top)
	case KindSelection:
		visible := len(r.SelectCols) - r.HiddenCols
		out.Columns = r.SelectCols[:visible]
		out.Rows = r.Selection.rows(q, r.SelectCols, visible)
	}
	return out
}

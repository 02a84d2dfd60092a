package query

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"pinot/internal/pql"
	"pinot/internal/qcache"
	"pinot/internal/qctx"
	"pinot/internal/segment"
)

// Engine executes queries across the segments of one node, scheduling
// per-segment plans on a bounded worker pool (paper 3.3.4: "query plans are
// then submitted for execution to the query execution scheduler. Query plans
// are processed in parallel").
type Engine struct {
	// Options tune physical planning for every query this engine runs.
	Options Options
	// OnOutcome, when set, receives each query's segment disposition after
	// execution: plans run to completion, plans cancelled mid-scan, and
	// segments never dispatched before the deadline. The server wires this
	// to its metrics, keeping this package free of the metrics dependency.
	OnOutcome func(executed, cancelled, skipped int)
	// AggCache, when set, is the server-side partial-aggregate cache:
	// per-segment merged aggregation state for immutable segments, checked
	// before plan execution and filled after (see aggcache.go). Nil
	// disables the tier.
	AggCache *qcache.Cache

	// parallelism bounds concurrently executing segment plans; zero means
	// GOMAXPROCS. In-package tests set it.
	parallelism int
	// afterMiss is a test seam: in-package tests use it to hand the cache
	// a result the engine itself never produces (see aggcache.go).
	afterMiss func(*Intermediate)
}

// Execute runs a parsed query over the given segments and returns the merged
// (but not finalized) partial result, its segments folded in segment-index
// order — selection merges append rows, so order is semantics — and the
// pruning work folded into its Stats. A context cancellation or deadline
// produces a best-effort partial result with an exception note, matching the
// paper's partial-result semantics (3.3.3 step 7): undispatched segments are
// skipped, and in-flight segments stop cooperatively at the next block
// boundary — both count (and the cancelled ones are named) in the timeout
// exception. A merge error cancels outstanding segment work and is returned
// as the execution error.
func (e *Engine) Execute(ctx context.Context, q *pql.Query, segs []IndexedSegment, tableSchema *segment.Schema) (*Intermediate, []string, error) {
	empty := func(stats Stats) *Intermediate {
		res := EmptyIntermediate(q, tableSchema)
		res.Stats = stats
		return res
	}
	if len(segs) == 0 {
		return empty(Stats{}), nil, nil
	}
	// Server-side pruning: drop segments whose metadata proves the filter
	// matches nothing, and elide filters proven to match everything. Each
	// kept segment carries the query it should run (queries[i]).
	var pruned Stats
	queries := make([]*pql.Query, len(segs))
	if e.Options.DisablePruning {
		for i := range queries {
			queries[i] = q
		}
	} else {
		plan := planPruning(q, segs, tableSchema, e.Options)
		segs, queries, pruned = plan.keep, plan.queries, plan.stats
		if len(segs) == 0 {
			return empty(pruned), nil, nil
		}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	par := e.parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(segs) {
		par = len(segs)
	}

	// The cache key is rendered once per distinct query, not per segment:
	// pruning hands most segments the same *pql.Query, and at most one
	// filter-elided copy.
	var cacheKeys map[*pql.Query]string
	if e.AggCache != nil && q.IsAggregation() {
		cacheKeys = make(map[*pql.Query]string, 2)
		for _, sq := range queries {
			if _, ok := cacheKeys[sq]; !ok {
				cacheKeys[sq] = aggCacheKey(sq)
			}
		}
	}

	type outcome struct {
		index int
		res   *Intermediate
		err   error
	}
	outcomes := make(chan outcome, len(segs))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				res, err := e.executeSegmentCached(ctx, segs[i], queries[i], cacheKeys[queries[i]], tableSchema)
				outcomes <- outcome{i, res, err}
			}
		}()
	}
	go func() {
	dispatch:
		for i := range segs {
			select {
			case work <- i:
			case <-ctx.Done():
				break dispatch
			}
		}
		close(work)
		wg.Wait()
		close(outcomes)
	}()

	// Reorder buffer: outcomes arrive in completion order, but fold in
	// segment-index order the moment their predecessors have resolved.
	results := make([]outcome, len(segs))
	arrived := make([]bool, len(segs))
	next := 0

	var merged *Intermediate
	var errExcs []string
	var cancelled []string
	var firstErr, mergeErr error
	succeeded, dispatched := 0, 0
	for o := range outcomes {
		dispatched++
		results[o.index], arrived[o.index] = o, true
		if mergeErr != nil {
			continue // draining after a failed merge; workers are cancelled
		}
		for next < len(segs) && arrived[next] {
			o := results[next]
			next++
			var ce *cancelledError
			if errors.As(o.err, &ce) {
				// Dispatched but stopped mid-scan at a block boundary: no
				// usable partial from this segment, and it must be counted
				// as not processed (the pre-cancellation engine reported
				// these as processed).
				cancelled = append(cancelled, segs[o.index].Seg.Name())
				continue
			}
			if o.err != nil {
				if firstErr == nil {
					firstErr = o.err
				}
				errExcs = append(errExcs, o.err.Error())
				continue
			}
			succeeded++
			if merged == nil {
				merged = o.res
			} else if mergeErr = merged.Merge(o.res); mergeErr != nil {
				cancel()
				break
			}
		}
	}
	skipped := len(segs) - dispatched
	if e.OnOutcome != nil {
		e.OnOutcome(succeeded, len(cancelled), skipped)
	}
	if mergeErr != nil {
		return nil, errExcs, mergeErr
	}
	var exceptions []string
	if n := skipped + len(cancelled); n > 0 {
		msg := fmt.Sprintf("timeout: %d of %d segments not processed", n, len(segs))
		if len(cancelled) > 0 {
			msg += fmt.Sprintf(" (%d undispatched, %d cancelled mid-scan: %s)",
				skipped, len(cancelled), strings.Join(cancelled, ", "))
		}
		exceptions = append(exceptions, msg)
	}
	exceptions = append(exceptions, errExcs...)
	if succeeded == 0 && firstErr != nil {
		// Every attempted segment failed outright (bad column, bad
		// aggregation, ...): that is a query error, not degradation.
		return nil, exceptions, firstErr
	}
	if merged == nil {
		// Everything was skipped by the deadline: an empty result
		// marked partial, per the paper's graceful-degradation
		// semantics.
		return empty(pruned), exceptions, nil
	}
	merged.Stats.Merge(pruned)
	return merged, exceptions, nil
}

// EmptyIntermediate produces the intermediate of the right shape for a query
// that no document matched; brokers use it when every server failed or every
// segment was pruned, so clients still get a well-formed response. An
// aggregation without GROUP BY still holds its one row; a selection has the
// columns a segment's execution would give it, '*' expanded over the table's
// schema, so it merges with any server's rows whichever comes first.
func EmptyIntermediate(q *pql.Query, tableSchema *segment.Schema) *Intermediate {
	if q.IsAggregation() {
		var exprs []pql.Expression
		for _, e := range q.Select {
			if e.IsAgg {
				exprs = append(exprs, e)
			}
		}
		if q.HasGroupBy() {
			return &Intermediate{Kind: KindGroupBy, AggExprs: exprs, GroupCols: q.GroupBy}
		}
		return NewAggIntermediate(exprs)
	}
	cols, hidden := selectionColumns(q, tableSchema)
	return &Intermediate{Kind: KindSelection, SelectCols: cols, HiddenCols: hidden}
}

// Run parses and executes PQL text against segments, finalizing the result.
// It is the single-node entry point used by the examples, tests and the
// Druid baseline; the distributed path goes through broker and server
// packages. Run mints a QueryContext when the caller did not provide one
// (budgeted from the context deadline, if any), so every result — including
// the Druid baseline's — carries a query ID and a phase trace beside its
// Stats.
func Run(ctx context.Context, pqlText string, segs []IndexedSegment, tableSchema *segment.Schema, opt Options) (*Result, error) {
	qc := qctx.From(ctx)
	if qc == nil {
		var budget time.Duration
		if dl, ok := ctx.Deadline(); ok {
			budget = time.Until(dl)
		}
		qc = qctx.New("", budget)
		ctx = qctx.With(ctx, qc)
	}
	stop := qc.Clock(qctx.PhaseParse)
	q, err := pql.Parse(pqlText)
	stop()
	if err != nil {
		return nil, err
	}
	eng := &Engine{Options: opt}
	stop = qc.Clock(qctx.PhaseExecute)
	merged, exceptions, err := eng.Execute(ctx, q, segs, tableSchema)
	stop()
	if err != nil {
		return nil, err
	}
	stop = qc.Clock(qctx.PhaseReduce)
	res := merged.Finalize(q)
	stop()
	res.Exceptions = exceptions
	res.Partial = len(exceptions) > 0
	res.QueryID = qc.ID()
	res.Trace = qc.TraceSnapshot()
	return res, nil
}

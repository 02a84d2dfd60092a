package query

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pinot/internal/pql"
	"pinot/internal/qcache"
	"pinot/internal/qctx"
	"pinot/internal/segment"
)

// Engine executes queries across the segments of one node, each query's plans
// on its caller's goroutine and the idle helpers that join it (paper 3.3.4:
// "query plans are then submitted for execution to the query execution
// scheduler. Query plans are processed in parallel").
type Engine struct {
	// Options tune physical planning for every query this engine runs.
	Options Options
	// OnOutcome, when set, receives each query's segment disposition after
	// execution: plans run to completion, plans cancelled mid-scan, and
	// segments never claimed before the deadline. The server wires this
	// to its metrics, keeping this package free of the metrics dependency.
	OnOutcome func(executed, cancelled, skipped int)
	// AggCache, when set, is the server-side partial-aggregate cache:
	// per-segment merged aggregation state for immutable segments, checked
	// before plan execution and filled after (see aggcache.go). Nil
	// disables the tier.
	AggCache *qcache.Cache

	// parallelism caps the goroutines running one query's plans, its caller
	// included (1: the caller alone); zero means GOMAXPROCS. Tests set it.
	parallelism int
	// afterMiss is a test seam: in-package tests use it to hand the cache
	// a result the engine itself never produces (see aggcache.go).
	afterMiss func(*Intermediate)
}

// Execute runs a parsed query over the given segments and returns the merged
// (but not finalized) partial result, its segments folded in segment-index
// order — selection merges append rows, so order is semantics — and the
// pruning work folded into its Stats. The calling goroutine runs the segment
// plans; idle helpers may join it, and Execute never waits for a busy one. A
// context cancellation or deadline produces a best-effort partial result with
// an exception note, matching the paper's partial-result semantics (3.3.3
// step 7): segments not yet claimed are skipped, and claimed segments stop
// cooperatively at the next block boundary — both count (and the cancelled
// ones are named) in the timeout exception. Every plan has finished before
// the fold, so a merge error is simply returned as the execution error.
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
	x := &execution{e: e, ctx: ctx, segs: segs, queries: queries, schema: tableSchema, outcomes: make([]outcome, len(segs))}
	// A selection's columns are the same for every segment under the table's
	// schema: they are derived once. Without one, '*' expands over each
	// segment's own.
	if !q.IsAggregation() && tableSchema != nil {
		x.cols, x.hidden = selectionColumns(q, tableSchema)
	}
	// The cache key is rendered once per distinct query, not per segment:
	// pruning hands most segments the same *pql.Query, and at most one
	// filter-elided copy.
	if e.AggCache != nil && q.IsAggregation() {
		x.cacheKeys = make(map[*pql.Query]string, 2)
		for _, sq := range queries {
			if _, ok := x.cacheKeys[sq]; !ok {
				x.cacheKeys[sq] = aggCacheKey(sq)
			}
		}
	}
	par := e.parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	// Offer the claim loop to up to par-1 idle helpers. The first offer no
	// helper takes ends the offers: the caller does the rest itself.
	for w := 1; w < min(par, len(segs)); w++ {
		x.wg.Add(1)
		select {
		case helpers() <- x:
			continue
		default:
			x.wg.Done()
		}
		break
	}
	x.claim()
	x.wg.Wait()

	var errExcs, cancelled []string
	var firstErr error
	claimed := min(int(x.next.Load()), len(segs))
	// The outcomes that produced a result move to the front, in segment
	// order: done.
	done := x.outcomes[:0]
	for i, o := range x.outcomes[:claimed] {
		var ce *cancelledError
		if errors.As(o.err, &ce) {
			// Claimed but stopped mid-scan at a block boundary: no usable
			// partial from this segment, and it counts as not processed.
			cancelled = append(cancelled, segs[i].Seg.Name())
			continue
		}
		if o.err != nil {
			if firstErr == nil {
				firstErr = o.err
			}
			errExcs = append(errExcs, o.err.Error())
			continue
		}
		done = append(done, o)
	}
	succeeded := len(done)
	merged, mergeErr := fold(done)
	skipped := len(segs) - claimed
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

// execution is one query's segments and their outcomes. next hands out segment
// indices in order, so the claimed ones are a prefix; outcomes[i] is written
// by the goroutine that claimed segment i and read after wg.Wait.
type execution struct {
	e         *Engine
	ctx       context.Context
	segs      []IndexedSegment
	queries   []*pql.Query
	cacheKeys map[*pql.Query]string
	// cols and hidden are a selection's columns (selectionColumns), nil
	// when each segment derives its own.
	cols     []string
	hidden   int
	schema   *segment.Schema
	next     atomic.Int64
	wg       sync.WaitGroup // one count per helper that joined
	outcomes []outcome
}

type outcome struct {
	res *Intermediate
	err error
}

// fold merges the segments' results in order into the first. A selection's
// columns grow once, to hold every segment's rows, before any is appended.
// The segments' results are scratch: of several, the merged one is copied
// out — a group table at its exact size, a selection's rows moved — and every
// one is released, merge error or not. A lone result is returned as it is.
func fold(done []outcome) (*Intermediate, error) {
	if len(done) == 0 {
		return nil, nil
	}
	merged := done[0].res
	if len(done) == 1 {
		return merged, nil
	}
	defer func() {
		for _, o := range done {
			o.res.release()
		}
	}()
	if merged.Kind == KindSelection {
		var buf [16]*Selection
		parts := buf[:0]
		for _, o := range done[1:] {
			parts = append(parts, o.res.Selection)
		}
		merged.Selection = merged.Selection.grow(parts)
	}
	for _, o := range done[1:] {
		if err := merged.Merge(o.res); err != nil {
			return nil, err
		}
	}
	out := new(Intermediate)
	*out = *merged
	out.Groups = merged.Groups.exact()
	return out, nil
}

// claim runs unclaimed segments until none is left or the context ends.
func (x *execution) claim() {
	for x.ctx.Err() == nil {
		i := int(x.next.Add(1) - 1)
		if i >= len(x.segs) {
			return
		}
		q, o := x.queries[i], &x.outcomes[i]
		if x.cols != nil {
			o.res, o.err = executeSegment(x.ctx, x.segs[i], q, x.schema, x.cols, x.hidden, x.e.Options)
		} else {
			o.res, o.err = x.e.executeSegmentCached(x.ctx, x.segs[i], q, x.cacheKeys[q], x.schema)
		}
	}
}

// GOMAXPROCS-1 helpers wait on helperWork from first use until the process
// exits, serving every Engine: GOMAXPROCS is per process, so servers sharing a
// process share its cores.
var (
	helpersOnce sync.Once
	helperWork  chan *execution
)

func helpers() chan<- *execution {
	helpersOnce.Do(func() {
		helperWork = make(chan *execution)
		for n := runtime.GOMAXPROCS(0) - 1; n > 0; n-- {
			go func() {
				for x := range helperWork {
					x.claim()
					x.wg.Done()
				}
			}()
		}
	})
	return helperWork
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

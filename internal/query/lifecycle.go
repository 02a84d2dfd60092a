package query

import (
	"context"
	"fmt"

	"pinot/internal/qctx"
)

// cancelledError marks a segment execution stopped mid-scan by a
// cooperative cancellation checkpoint. The engine names these segments in
// its timeout exception — they were dispatched but not processed.
type cancelledError struct {
	segment string
	cause   error
}

func (e *cancelledError) Error() string {
	return fmt.Sprintf("query: segment %s cancelled mid-scan: %v", e.segment, e.cause)
}

func (e *cancelledError) Unwrap() error { return e.cause }

// execEnv is the per-segment execution environment: the context checked at
// cancellation checkpoints and the query-wide resource accounting. Segment
// operators call checkpoint at block boundaries (~blockSize matched docs),
// so an in-flight segment stops within one block of ctx.Done().
type execEnv struct {
	ctx context.Context
	qc  *qctx.QueryContext
	seg string
	// table is the query's table name, carried for dictionary-memo cache
	// accounting (the cache reports per-table metric families).
	table string
	// evalErr latches the first expression-evaluation error of this segment
	// execution (resource limit, bad runtime argument). Evaluators record it
	// and return a zero value; checkpoint surfaces it at the next block
	// boundary.
	evalErr error
	// dictExprUsed records that dictionary-space expression planning served
	// something during this segment execution; surfaced as
	// Stats.DictExprSegments.
	dictExprUsed bool
}

func newExecEnv(ctx context.Context, seg string) *execEnv {
	qc := qctx.From(ctx)
	if qc == nil {
		qc = qctx.New("", 0)
	}
	return &execEnv{ctx: ctx, qc: qc, seg: seg}
}

// fail latches the first expression-evaluation error.
func (e *execEnv) fail(err error) {
	if e.evalErr == nil {
		e.evalErr = err
	}
}

// checkpoint returns a latched evaluation error or a cancellation error when
// the query's context has ended. The executors call it once per block. The
// evaluation error is checked first: it is deterministic, while context
// expiry is wall-clock timing.
func (e *execEnv) checkpoint() error {
	if e.evalErr != nil {
		return fmt.Errorf("query: segment %s: %w", e.seg, e.evalErr)
	}
	if err := e.ctx.Err(); err != nil {
		return &cancelledError{segment: e.seg, cause: err}
	}
	return nil
}

// Per-group size estimate constants for group-by state: a fixed part, the
// group's rendered key (each value as fmt.Sprint prints it, a separator
// between two), its values and one state per aggregation. The estimate is
// deterministic — a function of key length and arity only, not of how the
// group table lays the group out — so every grouper charges identical byte
// counts.
const (
	groupEntryBaseBytes = 64
	groupValueBytes     = 48
	groupAggStateBytes  = 112
)

func groupEntryBytes(keyLen, nValues, nAggs int) int64 {
	return int64(groupEntryBaseBytes + keyLen + groupValueBytes*nValues + groupAggStateBytes*nAggs)
}

// groupCharger accounts the group-by state a segment executor allocates:
// locally for the segment's Stats and against the query-wide cap in the
// QueryContext. One charger serves one segment executor (single goroutine);
// the QueryContext aggregates across segments.
type groupCharger struct {
	qc    *qctx.QueryContext
	nAggs int
	bytes int64
}

func (g *groupCharger) charge(keyLen, nValues int) {
	n := groupEntryBytes(keyLen, nValues, g.nAggs)
	g.bytes += n
	g.qc.ChargeGroupState(n)
}

package query

import (
	"context"
	"fmt"
)

// cancelledError marks a segment execution stopped mid-scan by a
// cooperative cancellation checkpoint. The engine names these segments in
// its timeout exception — they were claimed but not processed.
type cancelledError struct {
	segment string
	cause   error
}

func (e *cancelledError) Error() string {
	return fmt.Sprintf("query: segment %s cancelled mid-scan: %v", e.segment, e.cause)
}

func (e *cancelledError) Unwrap() error { return e.cause }

// execEnv is the per-segment execution environment: the context checked at
// cancellation checkpoints. Segment operators call checkpoint at block
// boundaries (~blockSize matched docs), so an in-flight segment stops within
// one block of ctx.Done().
type execEnv struct {
	ctx context.Context
	seg string
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
	return &execEnv{ctx: ctx, seg: seg}
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

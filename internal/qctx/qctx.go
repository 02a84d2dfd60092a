// Package qctx is the per-query context spine of the query path. A
// QueryContext is minted where a query enters a layer (broker, or server —
// each network hop mints its own, seeded from the wire budget) and carries:
//
//   - a query ID shared across layers for correlation,
//   - a monotonically decremented deadline budget: the broker charges
//     planning and routing against it and puts the remaining millis on the
//     wire, the server charges queue wait, the engine charges per-segment
//     execution — so every hop enforces what is actually left, not a fresh
//     full timeout (paper 3.3.3's bounded-latency contract made explicit),
//   - a phase ledger (parse, route, queue, scatter, execute, merge, reduce)
//     surfaced to clients as a structured trace,
//   - per-query resource accounting: docs/entries scanned and group-by
//     state bytes, with a configurable cap that degrades the query to a
//     partial result instead of an OOM.
//
// The zero-dependency design is deliberate: every layer of the query path
// imports this package, so it can import nothing but the standard library.
package qctx

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Phase names one stage of the query lifecycle in the trace ledger.
type Phase string

// Lifecycle phases. Parse/route/scatter/merge/reduce partition the broker's
// wall clock; queue and execute are measured on servers and nest inside the
// broker's scatter phase (on the single-node path they are top-level).
const (
	PhaseParse   Phase = "parse"
	PhaseRoute   Phase = "route"
	PhaseQueue   Phase = "queue"
	PhaseScatter Phase = "scatter"
	PhaseExecute Phase = "execute"
	PhaseMerge   Phase = "merge"
	PhaseReduce  Phase = "reduce"
)

// Trace is the per-phase time ledger of one query. It travels in the trailer
// of a server's response (transport.FinalFrame) and in BrokerResponse.
type Trace map[Phase]time.Duration

// WallSum sums the phases that partition the owning layer's wall clock: on
// a distributed trace (scatter present) the queue and execute phases were
// measured on servers concurrently with scatter and are excluded; on a
// single-node trace they are top-level. The invariant WallSum ≤ wall-clock
// elapsed is what makes the ledger a budget rather than a set of counters.
func (t Trace) WallSum() time.Duration {
	_, distributed := t[PhaseScatter]
	var sum time.Duration
	for p, d := range t {
		if distributed && (p == PhaseQueue || p == PhaseExecute) {
			continue
		}
		sum += d
	}
	return sum
}

// Usage is a snapshot of a query's resource accounting.
type Usage struct {
	DocsScanned     int64
	EntriesScanned  int64
	GroupStateBytes int64
}

// QueryContext is the mutable per-query state threaded through one layer of
// the query path via context.Context. All methods are safe for concurrent
// use by the segment workers of one query.
type QueryContext struct {
	id     string
	start  time.Time
	budget time.Duration // 0 = unlimited

	mu    sync.Mutex
	trace Trace

	docsScanned    atomic.Int64
	entriesScanned atomic.Int64

	groupBytes    atomic.Int64
	groupLimit    atomic.Int64
	groupExceeded atomic.Bool
}

// New mints a query context with the given ID (empty generates one) and
// total deadline budget (0 = unlimited).
func New(id string, budget time.Duration) *QueryContext {
	if id == "" {
		id = NewID()
	}
	return &QueryContext{id: id, start: time.Now(), budget: budget, trace: Trace{}}
}

var (
	idMu  sync.Mutex
	idRnd = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// NewID returns a fresh query ID.
func NewID() string {
	idMu.Lock()
	defer idMu.Unlock()
	return fmt.Sprintf("q-%08x", idRnd.Uint32())
}

// ID returns the query's correlation ID.
func (qc *QueryContext) ID() string { return qc.id }

// Budget returns the total deadline budget (0 = unlimited).
func (qc *QueryContext) Budget() time.Duration { return qc.budget }

// StartTime returns when the context was minted.
func (qc *QueryContext) StartTime() time.Time { return qc.start }

// Elapsed returns time spent since the context was minted.
func (qc *QueryContext) Elapsed() time.Duration { return time.Since(qc.start) }

// Remaining returns the unspent deadline budget. The second result is false
// when the budget is unlimited. The remainder is clamped at zero: a budget
// never goes negative, it is simply exhausted.
func (qc *QueryContext) Remaining() (time.Duration, bool) {
	if qc.budget <= 0 {
		return 0, false
	}
	left := qc.budget - qc.Elapsed()
	if left < 0 {
		left = 0
	}
	return left, true
}

// Charge adds a duration to a phase of the trace ledger.
func (qc *QueryContext) Charge(p Phase, d time.Duration) {
	qc.mu.Lock()
	qc.trace[p] += d
	qc.mu.Unlock()
}

// Clock starts timing a phase; the returned stop function charges the
// elapsed time: defer qc.Clock(PhaseParse)().
func (qc *QueryContext) Clock(p Phase) func() {
	t0 := time.Now()
	return func() { qc.Charge(p, time.Since(t0)) }
}

// ObserveServer folds a server-side trace into the broker's ledger. Server
// phases run concurrently across the scatter fan-out, so each is folded as
// the maximum observed — the critical path, not the sum.
func (qc *QueryContext) ObserveServer(t Trace) {
	qc.mu.Lock()
	for p, d := range t {
		if d > qc.trace[p] {
			qc.trace[p] = d
		}
	}
	qc.mu.Unlock()
}

// TraceSnapshot returns a copy of the current ledger.
func (qc *QueryContext) TraceSnapshot() Trace {
	qc.mu.Lock()
	defer qc.mu.Unlock()
	out := make(Trace, len(qc.trace))
	for p, d := range qc.trace {
		out[p] = d
	}
	return out
}

// AddScan records docs and entries scanned by one segment.
func (qc *QueryContext) AddScan(docs, entries int64) {
	qc.docsScanned.Add(docs)
	qc.entriesScanned.Add(entries)
}

// SetGroupStateLimit caps the query's aggregate group-by state. Only the
// first positive limit sticks, so an engine-level default cannot override a
// stricter per-request cap set earlier.
func (qc *QueryContext) SetGroupStateLimit(bytes int64) {
	if bytes > 0 {
		qc.groupLimit.CompareAndSwap(0, bytes)
	}
}

// GroupStateLimit returns the configured cap (0 = uncapped).
func (qc *QueryContext) GroupStateLimit() int64 { return qc.groupLimit.Load() }

// ChargeGroupState records bytes of newly created group-by state. Crossing
// the cap latches the exceeded flag; the state was already allocated, so
// the bytes still count. Segment executors poll GroupStateExceeded at block
// boundaries and degrade to a partial result.
func (qc *QueryContext) ChargeGroupState(bytes int64) {
	total := qc.groupBytes.Add(bytes)
	if limit := qc.groupLimit.Load(); limit > 0 && total > limit {
		qc.groupExceeded.Store(true)
	}
}

// GroupStateExceeded reports whether the group-by state cap has tripped.
func (qc *QueryContext) GroupStateExceeded() bool { return qc.groupExceeded.Load() }

// GroupStateBytes returns the group-by state charged so far.
func (qc *QueryContext) GroupStateBytes() int64 { return qc.groupBytes.Load() }

// UsageSnapshot returns the current resource accounting.
func (qc *QueryContext) UsageSnapshot() Usage {
	return Usage{
		DocsScanned:     qc.docsScanned.Load(),
		EntriesScanned:  qc.entriesScanned.Load(),
		GroupStateBytes: qc.groupBytes.Load(),
	}
}

type ctxKey struct{}

// With attaches a query context.
func With(ctx context.Context, qc *QueryContext) context.Context {
	return context.WithValue(ctx, ctxKey{}, qc)
}

// From extracts the query context, or nil when the context carries none.
func From(ctx context.Context) *QueryContext {
	qc, _ := ctx.Value(ctxKey{}).(*QueryContext)
	return qc
}

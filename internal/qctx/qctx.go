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
//   - a phase ledger (parse, route, queue, scatter, execute, merge, reduce):
//     a fixed array of durations indexed by Phase, held by value, so
//     charging, folding and copying it allocate nothing; it is named phase
//     by phase only where it is rendered (the wire trailer, the /query
//     JSON, the slow-query log).
//
// The zero-dependency design is deliberate: every layer of the query path
// imports this package, so it can import nothing but the standard library.
package qctx

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Phase names one stage of the query lifecycle in the trace ledger: a small
// integer, the ledger's index, that renders as its name.
type Phase uint8

// Lifecycle phases. Parse/route/scatter/merge/reduce partition the broker's
// wall clock; queue and execute are measured on servers and nest inside the
// broker's scatter phase (on the single-node path they are top-level).
const (
	PhaseParse Phase = iota
	PhaseRoute
	PhaseQueue
	PhaseScatter
	PhaseExecute
	PhaseMerge
	PhaseReduce
	// NumPhases counts the phases: a Trace holds one duration each.
	NumPhases
)

var phaseNames = [NumPhases]string{"parse", "route", "queue", "scatter", "execute", "merge", "reduce"}

func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Trace is the per-phase time ledger of one query, indexed by Phase; a phase
// the query never charged holds zero. It travels in the trailer of a
// server's response (transport.FinalFrame) and in BrokerResponse.
type Trace [NumPhases]time.Duration

// WallSum sums the phases that partition the owning layer's wall clock: on
// a distributed trace (scatter charged) the queue and execute phases were
// measured on servers concurrently with scatter and are excluded; on a
// single-node trace they are top-level. The invariant WallSum ≤ wall-clock
// elapsed is what makes the ledger a budget rather than a set of counters.
func (t Trace) WallSum() time.Duration {
	distributed := t[PhaseScatter] > 0
	var sum time.Duration
	for p, d := range t {
		if distributed && (Phase(p) == PhaseQueue || Phase(p) == PhaseExecute) {
			continue
		}
		sum += d
	}
	return sum
}

// MarshalJSON renders the phases charged as an object of their nanoseconds
// by name, and a ledger that charged none as null: the JSON of the map the
// ledger once was.
func (t Trace) MarshalJSON() ([]byte, error) {
	var named map[string]time.Duration
	for p, d := range t {
		if d != 0 {
			if named == nil {
				named = map[string]time.Duration{}
			}
			named[Phase(p).String()] = d
		}
	}
	return json.Marshal(named)
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
}

// New mints a query context with the given ID (empty generates one) and
// total deadline budget (0 = unlimited).
func New(id string, budget time.Duration) *QueryContext {
	if id == "" {
		id = NewID()
	}
	return &QueryContext{id: id, start: time.Now(), budget: budget}
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
	return qc.trace
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

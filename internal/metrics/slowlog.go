package metrics

import (
	"encoding/json"
	"sort"
	"sync"
	"time"

	"pinot/internal/qctx"
)

// SlowQuery is one entry in the slow-query log: enough to reconstruct where
// a slow query spent its time without re-running it.
type SlowQuery struct {
	QueryID    string `json:"queryId"`
	Table      string `json:"table"`
	PQL        string `json:"pql"`
	TimeMillis int64  `json:"timeMillis"`
	LatencyUs  int64  `json:"latencyUs"`
	Partial    bool   `json:"partial"`
	// Phases is the query's phase ledger, rendered as phaseTracesUs: the
	// microseconds of each phase charged, by name.
	Phases qctx.Trace `json:"-"`
}

// MarshalJSON renders the entry, naming its phases only now: most entries
// Record is offered are never kept, let alone rendered.
func (q SlowQuery) MarshalJSON() ([]byte, error) {
	type plain SlowQuery
	out := struct {
		plain
		PhaseTraces map[string]int64 `json:"phaseTracesUs,omitempty"`
	}{plain: plain(q)}
	for p, d := range q.Phases {
		if d != 0 {
			if out.PhaseTraces == nil {
				out.PhaseTraces = map[string]int64{}
			}
			out.PhaseTraces[qctx.Phase(p).String()] = DurationToUs(d)
		}
	}
	return json.Marshal(out)
}

// SlowLog keeps the N slowest queries seen so far, ordered slowest-first.
// Record is called once per query at the end of broker Execute — far off the
// per-segment hot path — so a plain mutex around a small sorted slice is the
// right tool; no lock-free cleverness needed.
type SlowLog struct {
	mu      sync.Mutex
	size    int
	entries []SlowQuery
}

// DefaultSlowLogSize is the ring size when a component doesn't configure one.
const DefaultSlowLogSize = 32

// NewSlowLog returns a log retaining the n slowest queries (n <= 0 uses
// DefaultSlowLogSize).
func NewSlowLog(n int) *SlowLog {
	if n <= 0 {
		n = DefaultSlowLogSize
	}
	return &SlowLog{size: n}
}

// Record offers a query to the log; it is kept only if it ranks among the N
// slowest.
func (l *SlowLog) Record(q SlowQuery) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) == l.size && q.LatencyUs <= l.entries[len(l.entries)-1].LatencyUs {
		return
	}
	// Insert keeping descending latency order; ties keep arrival order.
	i := sort.Search(len(l.entries), func(i int) bool {
		return l.entries[i].LatencyUs < q.LatencyUs
	})
	l.entries = append(l.entries, SlowQuery{})
	copy(l.entries[i+1:], l.entries[i:])
	l.entries[i] = q
	if len(l.entries) > l.size {
		l.entries = l.entries[:l.size]
	}
}

// Slowest returns the retained queries, slowest first.
func (l *SlowLog) Slowest() []SlowQuery {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowQuery, len(l.entries))
	copy(out, l.entries)
	return out
}

// Len returns the number of retained queries.
func (l *SlowLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// DurationToUs converts a duration to the integer microseconds used in log
// entries, rounding down.
func DurationToUs(d time.Duration) int64 { return int64(d / time.Microsecond) }

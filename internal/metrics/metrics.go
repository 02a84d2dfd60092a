// Package metrics is the cluster-wide observability substrate: a
// dependency-free registry of counters, gauges and mergeable log-linear
// histograms, organized into labeled families (per-table, per-instance,
// per-phase). Every layer of the system — broker, server, consumer,
// controller, tenancy, minion, transport — registers its instruments here,
// and the httpapi layer exposes the whole registry as `GET /metrics`
// (Prometheus text format plus a JSON variant).
//
// Design constraints, in order:
//
//   - The hot path must be lock-free: recording to an instrument is a map
//     read under an RWMutex at most (family lookup) and atomic adds after.
//     Callers on the data plane cache instrument handles, reducing a record
//     to one atomic add.
//   - Zero dependencies: every package imports this one, so it imports
//     nothing but the standard library (the same rule qctx follows).
//   - Tests are first-class consumers: the assertion helpers (Value, Total,
//     HistogramOf) exist so chaos and protocol tests can pin counter
//     movements, turning the metric surface into an executable spec.
//
// Naming scheme (enforced by convention, validated in tests):
// `pinot_<component>_<noun>[_<unit>][_total]`, snake_case, with `_total` for
// counters and explicit units (`_us`, `_bytes`, `_events`, `_millis`) on
// everything that has one. Labels are low-cardinality identifiers only
// (table, instance, tenant, action, reason) — never query text or IDs.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates instrument families.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Registry holds metric families. The zero value is not usable; create with
// NewRegistry or use the process-wide Default.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*Family{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry, used by components that were
// not handed an explicit one (and by the all-in-one cmd/pinot binary, where
// one process is one cluster).
func Default() *Registry { return defaultRegistry }

// family returns (registering on first use) the named family. Registration
// is idempotent; re-registering with a different kind or label set panics,
// since that is a programming error no test suite should let through.
func (r *Registry) family(name, help string, kind Kind, labels []string) *Family {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if ok {
		f.check(name, kind, labels)
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		f.check(name, kind, labels)
		return f
	}
	f = &Family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		children: map[string]*Instrument{},
	}
	r.families[name] = f
	return f
}

// Counter registers (or fetches) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *Family {
	return r.family(name, help, KindCounter, labels)
}

// Gauge registers (or fetches) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *Family {
	return r.family(name, help, KindGauge, labels)
}

// Histogram registers (or fetches) a histogram family.
func (r *Registry) Histogram(name, help string, labels ...string) *Family {
	return r.family(name, help, KindHistogram, labels)
}

// Families returns the registered families sorted by name.
func (r *Registry) Families() []*Family {
	r.mu.RLock()
	out := make([]*Family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Value returns the value of one counter/gauge child (0 when absent).
func (r *Registry) Value(name string, labelValues ...string) int64 {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		return 0
	}
	c, ok := f.lookup(labelValues)
	if !ok {
		return 0
	}
	return c.Value()
}

// Total sums a counter/gauge family across all label values (0 when the
// family is absent). For histogram families it sums observation counts.
func (r *Registry) Total(name string) int64 {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		return 0
	}
	var sum int64
	for _, c := range f.Children() {
		if f.kind == KindHistogram {
			sum += c.hist.Count()
		} else {
			sum += c.Value()
		}
	}
	return sum
}

// HistogramOf returns one histogram child, or nil when absent.
func (r *Registry) HistogramOf(name string, labelValues ...string) *Histogram {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok || f.kind != KindHistogram {
		return nil
	}
	c, ok := f.lookup(labelValues)
	if !ok {
		return nil
	}
	return c.hist
}

// Family is one named metric with a fixed label set and one instrument per
// distinct label-value combination.
type Family struct {
	name   string
	help   string
	kind   Kind
	labels []string

	mu       sync.RWMutex
	children map[string]*Instrument
}

func (f *Family) check(name string, kind Kind, labels []string) {
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s re-registered as %s (was %s)", name, kind, f.kind))
	}
	if len(f.labels) != len(labels) {
		panic(fmt.Sprintf("metrics: %s re-registered with labels %v (was %v)", name, labels, f.labels))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("metrics: %s re-registered with labels %v (was %v)", name, labels, f.labels))
		}
	}
}

// Name returns the family name.
func (f *Family) Name() string { return f.name }

// Help returns the family help text.
func (f *Family) Help() string { return f.help }

// Kind returns the family kind.
func (f *Family) Kind() Kind { return f.kind }

// Labels returns the family's label names.
func (f *Family) Labels() []string { return f.labels }

const labelSep = "\x1f"

func childKey(values []string) string { return strings.Join(values, labelSep) }

func (f *Family) lookup(values []string) (*Instrument, bool) {
	f.mu.RLock()
	c, ok := f.children[childKey(values)]
	f.mu.RUnlock()
	return c, ok
}

// With returns the instrument for a label-value combination, creating it on
// first use. The value count must match the family's label names. Callers on
// hot paths should cache the returned handle.
func (f *Family) With(values ...string) *Instrument {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	if c, ok := f.lookup(values); ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	key := childKey(values)
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &Instrument{labelValues: append([]string(nil), values...)}
	if f.kind == KindHistogram {
		c.hist = &Histogram{}
	}
	f.children[key] = c
	return c
}

// Children returns the family's instruments sorted by label values.
func (f *Family) Children() []*Instrument {
	f.mu.RLock()
	out := make([]*Instrument, 0, len(f.children))
	for _, c := range f.children {
		out = append(out, c)
	}
	f.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		return childKey(out[i].labelValues) < childKey(out[j].labelValues)
	})
	return out
}

// Instrument is one counter, gauge or histogram child of a family.
type Instrument struct {
	labelValues []string
	val         atomic.Int64
	hist        *Histogram
}

// LabelValues returns the child's label values in family label order.
func (c *Instrument) LabelValues() []string { return c.labelValues }

// Add increments a counter or gauge by n. Counters must not go backwards;
// that is the caller's contract, not checked on the hot path.
func (c *Instrument) Add(n int64) {
	c.val.Add(n)
}

// Inc adds 1.
func (c *Instrument) Inc() { c.Add(1) }

// Dec subtracts 1 (gauges only, by convention).
func (c *Instrument) Dec() { c.Add(-1) }

// Set stores a gauge value.
func (c *Instrument) Set(v int64) {
	c.val.Store(v)
}

// Value reads a counter or gauge.
func (c *Instrument) Value() int64 { return c.val.Load() }

// Observe records a histogram observation.
func (c *Instrument) Observe(v float64) {
	c.hist.Observe(v)
}

// ObserveDuration records a latency observation in microseconds, the unit
// of every `_us` histogram in the catalog.
func (c *Instrument) ObserveDuration(d time.Duration) {
	c.hist.RecordDuration(d)
}

// Hist exposes the underlying histogram (histogram kind only).
func (c *Instrument) Hist() *Histogram { return c.hist }

// Package qcache is the multi-tier query cache substrate: a size-aware,
// scope-indexed cache shared by the broker-side query-result tier and the
// server-side partial-aggregate tier. Entries are grouped under a scope (a
// table resource for the result tier, a segment name for the aggregate
// tier) so a segment state change invalidates exactly the affected entries
// — precise invalidation, never time-based staleness. Eviction is bounded
// by bytes, least-recently-used first, with a small-result admission bias:
// dashboard-style workloads repeat many small aggregations, and one monster
// result must not wipe out a thousand useful entries. A tier whose keys are
// mostly seen once asks a doorkeeper (Admit) before it builds a value: a key
// is stored on its second sighting, so one-hit wonders never reach the heap.
// A value is opaque to the cache; its owner states its size, and the cache
// adds the key's length, so the bound covers what an entry holds (the two
// query tiers store encoded bytes of exactly the stated size, the
// dictionary-expression tier an estimate of its memo).
package qcache

import (
	"container/list"
	"hash/maphash"
	"strings"
	"sync"

	"pinot/internal/metrics"
)

// DefaultMaxBytes bounds a cache tier when the config leaves it zero.
const DefaultMaxBytes = 64 << 20

// Both admission rules are sized from the tier's bound, never set apart from
// it. An entry larger than MaxBytes/entryCapDiv is rejected outright (the
// small-result bias). The doorkeeper keeps one 8-byte hash per
// doorkeeperSlotBytes of bound, at least minDoorkeeperSlots: 4 096 slots,
// 32 KiB, at DefaultMaxBytes — a two-thousandth of the bytes it guards.
const (
	entryCapDiv         = 8
	doorkeeperSlotBytes = 16 << 10
	minDoorkeeperSlots  = 64
)

// Config tunes one cache tier.
type Config struct {
	// Tier labels this cache's metrics ("result", "aggregate").
	Tier string
	// MaxBytes bounds the sum of entry sizes, keys included
	// (0 = DefaultMaxBytes).
	MaxBytes int64
	// Metrics receives the tier's instrumentation (nil = metrics.Default()).
	Metrics *metrics.Registry
}

func (c *Config) withDefaults() {
	if c.Tier == "" {
		c.Tier = "cache"
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = DefaultMaxBytes
	}
}

// entry is one cached value. table is carried so per-table metric families
// stay attributable on eviction and invalidation, where only the scope is
// known to the caller. size is what the entry is charged: the value's stated
// size plus the key's length.
type entry struct {
	scope string
	key   string
	table string
	val   any
	size  int64
}

type cacheMetrics struct {
	hits          *metrics.Family // labels: tier, table
	misses        *metrics.Family
	evictions     *metrics.Family
	invalidations *metrics.Family
	bytesSaved    *metrics.Family
	rejected      *metrics.Family
	deferred      *metrics.Family
	bytes         *metrics.Instrument // gauge per tier
	entries       *metrics.Instrument // gauge per tier
}

func newCacheMetrics(reg *metrics.Registry, tier string) *cacheMetrics {
	if reg == nil {
		reg = metrics.Default()
	}
	return &cacheMetrics{
		hits: reg.Counter("pinot_cache_hits_total",
			"Cache lookups served from a tier, per table.", "tier", "table"),
		misses: reg.Counter("pinot_cache_misses_total",
			"Cache lookups that found no entry, per table.", "tier", "table"),
		evictions: reg.Counter("pinot_cache_evictions_total",
			"Entries evicted to stay under the byte bound, per table.", "tier", "table"),
		invalidations: reg.Counter("pinot_cache_invalidations_total",
			"Entries dropped by precise invalidation (segment state change), per table.", "tier", "table"),
		bytesSaved: reg.Counter("pinot_cache_bytes_saved_total",
			"Bytes of result recomputation avoided by cache hits, per table.", "tier", "table"),
		rejected: reg.Counter("pinot_cache_admission_rejects_total",
			"Entries refused admission for exceeding the entry-size cap, per table.", "tier", "table"),
		deferred: reg.Counter("pinot_cache_admission_deferred_total",
			"Misses not stored because the doorkeeper saw their key for the first time, per table.", "tier", "table"),
		bytes: reg.Gauge("pinot_cache_bytes",
			"Current bytes held by a cache tier.", "tier").With(tier),
		entries: reg.Gauge("pinot_cache_entries",
			"Current entries held by a cache tier.", "tier").With(tier),
	}
}

// Cache is one tier: a bounded-bytes scoped cache. All methods are safe for
// concurrent use.
type Cache struct {
	cfg Config
	met *cacheMetrics

	mu       sync.Mutex
	order    *list.List                          // front = most recently used; values are *entry
	byScope  map[string]map[string]*list.Element // scope → key → element
	tables   map[string]string                   // table name → the one copy entries share
	curBytes int64

	// The doorkeeper: a direct-mapped table of the hashes of the (scope, key)
	// pairs Admit was last asked about, made on the first Admit. A colliding
	// sighting overwrites its slot, which is all the aging it needs.
	seed maphash.Seed
	seen []uint64
}

// New builds a cache tier.
func New(cfg Config) *Cache {
	cfg.withDefaults()
	return &Cache{
		cfg:     cfg,
		met:     newCacheMetrics(cfg.Metrics, cfg.Tier),
		order:   list.New(),
		byScope: map[string]map[string]*list.Element{},
		tables:  map[string]string{},
		seed:    maphash.MakeSeed(),
	}
}

// internTableLocked returns the cache's own copy of a table name. Callers
// pass a substring of the query text; an entry that kept it would pin the
// whole text for as long as it lives, uncharged.
func (c *Cache) internTableLocked(table string) string {
	t, ok := c.tables[table]
	if !ok {
		t = strings.Clone(table)
		c.tables[t] = t
	}
	return t
}

// Get returns the value cached under (scope, key), recording a hit or miss
// for the table. On a hit the entry's recency is refreshed and its
// value's size is credited to the table's bytes-saved counter. A lookup
// builds no key: the two-level index is probed with the caller's strings.
func (c *Cache) Get(scope, table, key string) (any, bool) {
	c.mu.Lock()
	el, ok := c.byScope[scope][key]
	if !ok {
		c.mu.Unlock()
		c.met.misses.With(c.cfg.Tier, table).Inc()
		return nil, false
	}
	e := el.Value.(*entry)
	c.order.MoveToFront(el)
	val, size := e.val, e.size-int64(len(e.key))
	c.mu.Unlock()
	c.met.hits.With(c.cfg.Tier, table).Inc()
	c.met.bytesSaved.With(c.cfg.Tier, table).Add(size)
	return val, true
}

// Admit is the doorkeeper a tier asks after a miss, before it builds the
// value to Put: it reports whether (scope, key) is resident (a replacement is
// due at once) or was sighted before, and otherwise remembers this sighting,
// counts a deferred admission for the table and returns false. A collision
// or a stale hash can only admit a key one sighting early.
func (c *Cache) Admit(scope, table, key string) bool {
	var h maphash.Hash
	h.SetSeed(c.seed)
	h.WriteString(scope)
	h.WriteByte(0)
	h.WriteString(key)
	sum := h.Sum64()
	c.mu.Lock()
	if _, ok := c.byScope[scope][key]; ok {
		c.mu.Unlock()
		return true
	}
	if c.seen == nil {
		c.seen = make([]uint64, max(c.cfg.MaxBytes/doorkeeperSlotBytes, minDoorkeeperSlots))
	}
	slot := &c.seen[sum%uint64(len(c.seen))]
	seen := *slot == sum
	*slot = sum
	c.mu.Unlock()
	if !seen {
		c.met.deferred.With(c.cfg.Tier, table).Inc()
	}
	return seen
}

// Put admits a value of the stated size under (scope, key), evicting cold
// entries to stay under the byte bound. The entry is charged size plus the
// key's length; entries above the entry-size cap are rejected (the
// small-result bias); the return reports admission. Re-putting an existing
// key replaces the value in place.
func (c *Cache) Put(scope, table, key string, val any, size int64) bool {
	if size <= 0 {
		size = 1
	}
	size += int64(len(key))
	if size > c.cfg.MaxBytes/entryCapDiv {
		c.met.rejected.With(c.cfg.Tier, table).Inc()
		return false
	}
	type victim struct{ table string }
	var victims []victim
	c.mu.Lock()
	bytes0, len0 := c.curBytes, c.order.Len()
	table = c.internTableLocked(table)
	if el, ok := c.byScope[scope][key]; ok {
		e := el.Value.(*entry)
		c.curBytes += size - e.size
		e.val, e.size, e.table = val, size, table
		c.order.MoveToFront(el)
	} else {
		e := &entry{scope: scope, key: key, table: table, val: val, size: size}
		m := c.byScope[scope]
		if m == nil {
			m = map[string]*list.Element{}
			c.byScope[scope] = m
		}
		m[key] = c.order.PushFront(e)
		c.curBytes += size
	}
	for c.curBytes > c.cfg.MaxBytes && c.order.Len() > 1 {
		el := c.order.Back()
		e := el.Value.(*entry)
		c.removeLocked(el)
		victims = append(victims, victim{e.table})
	}
	c.moveGaugesLocked(bytes0, len0)
	c.mu.Unlock()
	for _, v := range victims {
		c.met.evictions.With(c.cfg.Tier, v.table).Inc()
	}
	return true
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.order.Remove(el)
	if m := c.byScope[e.scope]; m != nil {
		delete(m, e.key)
		if len(m) == 0 {
			delete(c.byScope, e.scope)
		}
	}
	c.curBytes -= e.size
}

// moveGaugesLocked moves the tier gauges by what this cache gained or lost
// since it held bytes0 in len0 entries. The gauges are per tier, and several
// caches of one tier (one per server) share a registry: each adds its own
// change, so a gauge reads the tier's sum, not its last writer.
func (c *Cache) moveGaugesLocked(bytes0 int64, len0 int) {
	c.met.bytes.Add(c.curBytes - bytes0)
	c.met.entries.Add(int64(c.order.Len() - len0))
}

// InvalidateScope drops every entry under a scope, incrementing the
// invalidation counter exactly once per dropped entry, and returns the
// number dropped. A scope with no entries is a no-op.
func (c *Cache) InvalidateScope(scope string) int {
	c.mu.Lock()
	bytes0, len0 := c.curBytes, c.order.Len()
	m := c.byScope[scope]
	dropped := make([]string, 0, len(m))
	for _, el := range m {
		dropped = append(dropped, el.Value.(*entry).table)
		c.removeLocked(el)
	}
	c.moveGaugesLocked(bytes0, len0)
	c.mu.Unlock()
	for _, table := range dropped {
		c.met.invalidations.With(c.cfg.Tier, table).Inc()
	}
	return len(dropped)
}

// InvalidateAll drops every entry in the cache (cluster-wide state change),
// counting each as an invalidation, and returns the number dropped.
func (c *Cache) InvalidateAll() int {
	c.mu.Lock()
	bytes0, len0 := c.curBytes, c.order.Len()
	var dropped []string
	for el := c.order.Front(); el != nil; el = el.Next() {
		dropped = append(dropped, el.Value.(*entry).table)
	}
	c.order.Init()
	c.byScope = map[string]map[string]*list.Element{}
	c.curBytes = 0
	c.moveGaugesLocked(bytes0, len0)
	c.mu.Unlock()
	for _, table := range dropped {
		c.met.invalidations.With(c.cfg.Tier, table).Inc()
	}
	return len(dropped)
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes returns the current byte total.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curBytes
}

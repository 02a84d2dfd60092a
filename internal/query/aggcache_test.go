package query

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"pinot/internal/metrics"
	"pinot/internal/pql"
	"pinot/internal/qcache"
	"pinot/internal/segment"
)

// aggCacheFixture builds a mixed segment set — three immutable segments and
// one mutable (consuming-style) segment — mirroring a realtime table's
// server-side shape.
func aggCacheFixture(t testing.TB) []IndexedSegment {
	t.Helper()
	var segs []IndexedSegment
	for i := 0; i < 3; i++ {
		rows := testRows(400, int64(100+i))
		cfg := segment.IndexConfig{}
		if i == 1 {
			cfg.InvertedColumns = []string{"country"}
			cfg.SortColumn = "memberId"
		}
		segs = append(segs, IndexedSegment{Seg: buildRows(t, rows, cfg, fmt.Sprintf("seg%d", i))})
	}
	ms, err := segment.NewMutableSegment("events", "rt0", rowsSchema(t), segment.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range testRows(300, 999) {
		if err := ms.Add(segment.Row{r.country, r.browser, r.member, r.clicks, r.rev, r.day}); err != nil {
			t.Fatal(err)
		}
	}
	return append(segs, IndexedSegment{Seg: ms.Snapshot()})
}

func aggCacheCorpus() []string {
	return []string{
		"SELECT count(*) FROM events",
		"SELECT sum(clicks), avg(revenue) FROM events WHERE country = 'us'",
		"SELECT min(clicks), max(clicks) FROM events WHERE day BETWEEN 15005 AND 15020",
		"SELECT distinctcount(browser) FROM events WHERE clicks > 40",
		"SELECT percentile95(clicks) FROM events WHERE country IN ('de', 'fr')",
		"SELECT count(*) FROM events GROUP BY country",
		"SELECT sum(clicks) FROM events WHERE memberId < 25 GROUP BY browser TOP 3",
		"SELECT max(revenue) FROM events GROUP BY day TOP 5",
	}
}

// TestAggCacheWarmMatchesCold is the engine-level differential: every
// corpus query must produce a byte-identical Result — stats included — on a
// cold cache (a first sighting: nothing stored), a second run (which stores),
// a warm run (which hits wherever the second stored), and with the cache
// disabled.
func TestAggCacheWarmMatchesCold(t *testing.T) {
	segs := aggCacheFixture(t)
	reg := metrics.NewRegistry()
	cache := qcache.New(qcache.Config{Tier: "aggregate", Metrics: reg})
	cached := &Engine{AggCache: cache}
	plain := &Engine{}
	hits := func() int64 { return reg.Value("pinot_cache_hits_total", "aggregate", "events") }
	for _, pqlText := range aggCacheCorpus() {
		q, err := pql.Parse(pqlText)
		if err != nil {
			t.Fatal(err)
		}
		run := func(e *Engine) *Result {
			merged, excs, err := e.Execute(context.Background(), q, segs, nil)
			if err != nil {
				t.Fatalf("%q: %v", pqlText, err)
			}
			if len(excs) > 0 {
				t.Fatalf("%q: exceptions %v", pqlText, excs)
			}
			return merged.Finalize(q)
		}
		off := run(plain)
		before := cache.Len()
		cold := run(cached)
		if cache.Len() != before {
			t.Errorf("%q: a first sighting stored %d entries", pqlText, cache.Len()-before)
		}
		second := run(cached)
		stored := int64(cache.Len() - before)
		hits0 := hits()
		warm := run(cached)
		if got := hits() - hits0; stored == 0 || got != stored {
			t.Errorf("%q: the second run stored %d entries and the warm run hit %d", pqlText, stored, got)
		}
		for name, res := range map[string]*Result{"cold": cold, "second": second, "warm": warm} {
			if !reflect.DeepEqual(off, res) {
				t.Errorf("%q: %s cached run diverges from cache-off:\n  off: %+v\n  %s: %+v", pqlText, name, off, name, res)
			}
		}
	}
	if cache.Len() == 0 {
		t.Fatal("cache stayed empty across an aggregation corpus")
	}
}

// TestAggCacheSkipsMutableSegments pins the consuming-segment rule: only the
// three immutable segments may populate the cache, never the mutable one. The
// query runs twice, since an entry is stored on its key's second sighting.
func TestAggCacheSkipsMutableSegments(t *testing.T) {
	segs := aggCacheFixture(t)
	reg := metrics.NewRegistry()
	cache := qcache.New(qcache.Config{Tier: "aggregate", Metrics: reg})
	e := &Engine{AggCache: cache}
	q, err := pql.Parse("SELECT count(*), sum(clicks) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := e.Execute(context.Background(), q, segs, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := cache.Len(); got != 3 {
		t.Fatalf("cache holds %d entries, want 3 (immutable segments only)", got)
	}
	if n := cache.InvalidateScope("rt0"); n != 0 {
		t.Fatalf("mutable segment had %d cached entries", n)
	}
	// Warm pass: exactly the three immutable segments hit.
	if _, _, err := e.Execute(context.Background(), q, segs, nil); err != nil {
		t.Fatal(err)
	}
	if hits := reg.Value("pinot_cache_hits_total", "aggregate", "events"); hits != 3 {
		t.Fatalf("hits = %d, want 3", hits)
	}
}

// TestAggCacheInvalidationForcesRecompute verifies a scope invalidation
// (what a helix transition triggers) turns the next query back into a miss
// that still returns correct data.
func TestAggCacheInvalidationForcesRecompute(t *testing.T) {
	segs := aggCacheFixture(t)
	reg := metrics.NewRegistry()
	cache := qcache.New(qcache.Config{Tier: "aggregate", Metrics: reg})
	e := &Engine{AggCache: cache}
	q, err := pql.Parse("SELECT sum(clicks) FROM events GROUP BY country")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		merged, _, err := e.Execute(context.Background(), q, segs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return merged.Finalize(q)
	}
	first := run()
	run() // the second sighting stores
	if n := cache.InvalidateScope("seg1"); n != 1 {
		t.Fatalf("invalidated %d entries for seg1, want 1", n)
	}
	missesBefore := reg.Value("pinot_cache_misses_total", "aggregate", "events")
	second := run()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("post-invalidation result diverges:\n  %+v\n  %+v", first, second)
	}
	if d := reg.Value("pinot_cache_misses_total", "aggregate", "events") - missesBefore; d != 1 {
		t.Fatalf("post-invalidation misses = %d, want exactly 1 (only seg1 recomputes)", d)
	}
}

// TestAggCacheTopVariantsShareEntries: TOP is applied at finalize, so all
// TOP variants of one group-by must share per-segment entries. Each variant
// runs once: the second is the second sighting of the one key they share,
// and stores; variants with keys of their own would store nothing.
func TestAggCacheTopVariantsShareEntries(t *testing.T) {
	segs := aggCacheFixture(t)
	cache := qcache.New(qcache.Config{Tier: "aggregate", Metrics: metrics.NewRegistry()})
	e := &Engine{AggCache: cache}
	for _, text := range []string{
		"SELECT count(*) FROM events GROUP BY country TOP 2",
		"SELECT count(*) FROM events GROUP BY country TOP 7",
	} {
		q, err := pql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.Execute(context.Background(), q, segs, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := cache.Len(); got != 3 {
		t.Fatalf("cache holds %d entries, want 3 shared across TOP variants", got)
	}
}

// TestAggCacheCommutedFiltersShareEntries: the canonicalized filter
// signature makes commuted AND chains collide at the segment tier too. As
// with TOP variants, each order runs once, and only a shared key stores.
func TestAggCacheCommutedFiltersShareEntries(t *testing.T) {
	segs := aggCacheFixture(t)
	cache := qcache.New(qcache.Config{Tier: "aggregate", Metrics: metrics.NewRegistry()})
	e := &Engine{AggCache: cache}
	for _, text := range []string{
		"SELECT count(*) FROM events WHERE country = 'us' AND clicks > 10",
		"SELECT count(*) FROM events WHERE clicks > 10 AND country = 'us'",
	} {
		q, err := pql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.Execute(context.Background(), q, segs, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := cache.Len(); got != 3 {
		t.Fatalf("cache holds %d entries, want 3 shared across commuted filters", got)
	}
}

// TestAggCacheSelectionNotCached: selections stay out of the cache.
func TestAggCacheSelectionNotCached(t *testing.T) {
	segs := aggCacheFixture(t)
	cache := qcache.New(qcache.Config{Tier: "aggregate", Metrics: metrics.NewRegistry()})
	e := &Engine{AggCache: cache}
	q, err := pql.Parse("SELECT country, clicks FROM events WHERE clicks > 50 ORDER BY clicks LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Execute(context.Background(), q, segs, nil); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 {
		t.Fatalf("selection query populated the cache with %d entries", cache.Len())
	}
}

// storedBytes returns the aggregate tier's entry for (segment, query): the
// very slice the cache holds, so a test can compare it or damage it.
func storedBytes(t *testing.T, cache *qcache.Cache, seg IndexedSegment, q *pql.Query) []byte {
	t.Helper()
	v, ok := cache.Get(seg.Seg.Name(), q.Table, aggCacheKey(q))
	if !ok {
		t.Fatalf("no entry for segment %s", seg.Seg.Name())
	}
	return v.([]byte)
}

// TestAggCacheIsolation: an entry is bytes nobody else holds, and a hit is a
// value nobody else holds. Eight goroutines take the same hits at once, the
// engine merges each one's into the next segment's and they finalize the
// lot; every answer is the cold answer and the stored bytes never move. Run
// under -race -count=10.
func TestAggCacheIsolation(t *testing.T) {
	segs := aggCacheFixture(t)
	cache := qcache.New(qcache.Config{Tier: "aggregate", Metrics: metrics.NewRegistry()})
	e := &Engine{AggCache: cache}
	q, err := pql.Parse("SELECT sum(clicks), distinctcount(browser), percentile90(revenue) FROM events WHERE country = 'us' GROUP BY day")
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*Result, error) {
		merged, _, err := e.Execute(context.Background(), q, segs, nil)
		if err != nil {
			return nil, err
		}
		return merged.Finalize(q), nil
	}
	baseline, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run(); err != nil { // the second sighting stores
		t.Fatal(err)
	}
	var stored [][]byte
	for _, s := range segs[:3] {
		stored = append(stored, append([]byte(nil), storedBytes(t, cache, s, q)...))
	}
	firstHit, err := e.executeSegmentCached(context.Background(), segs[0], q, aggCacheKey(q), nil)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, err := run()
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, baseline) {
					t.Errorf("a warm answer diverges:\n got %+v\nwant %+v", got, baseline)
				}
			}
		}()
	}
	wg.Wait()

	for i, s := range segs[:3] {
		if !bytes.Equal(storedBytes(t, cache, s, q), stored[i]) {
			t.Errorf("segment %s: the stored bytes changed under its readers", s.Seg.Name())
		}
	}
	nextHit, err := e.executeSegmentCached(context.Background(), segs[0], q, aggCacheKey(q), nil)
	if err != nil {
		t.Fatal(err)
	}
	if nextHit == firstHit || !reflect.DeepEqual(nextHit, firstHit) {
		t.Errorf("the next hit is not an equal, separate value:\n got %+v\nwant %+v", nextHit, firstHit)
	}
}

// TestAggCacheStoresEveryCacheablePair: a (query, segment) pair executed once
// leaves no entry, and one executed twice leaves exactly one. With values
// encoded on the way in, a result that failed to encode would silently stop
// being cached; over the differential corpus every pair the cache was asked
// about twice must have left its entry.
func TestAggCacheStoresEveryCacheablePair(t *testing.T) {
	segs := aggCacheFixture(t)
	cache := qcache.New(qcache.Config{Tier: "aggregate", Metrics: metrics.NewRegistry()})
	var executed atomic.Int64
	e := &Engine{AggCache: cache, afterMiss: func(*Intermediate) { executed.Add(1) }}
	pass := func() {
		for _, text := range aggCacheCorpus() {
			q, err := pql.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.Execute(context.Background(), q, segs, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass()
	n := executed.Load()
	if n == 0 || cache.Len() != 0 {
		t.Fatalf("%d cacheable pairs executed once, %d entries stored, want none", n, cache.Len())
	}
	pass()
	if got := executed.Load(); got != 2*n || int64(cache.Len()) != n {
		t.Fatalf("%d cacheable pairs executed twice (%d executions), %d entries stored", n, got, cache.Len())
	}
}

// TestAggCacheOneHitWondersCostNothing: an all-distinct stream of group-bys
// (the shape of a scan workload the broker tier never answers) leaves the
// tier empty, and a query allocates what it allocates with no cache at all:
// a first sighting is neither encoded nor stored. What is left is the key and
// the lookup, some 700 bytes a query (950 under the race detector); encoding
// every first sighting, even without storing it, adds some 4 600 more (7 200
// under the race detector). The filter bounds revenue (0 to 99.9 in the
// fixture) below its maximum, so pruning elides no filter and every
// (segment, key) pair is distinct.
func TestAggCacheOneHitWondersCostNothing(t *testing.T) {
	segs := aggCacheFixture(t)
	const n = 5000
	qs := make([]*pql.Query, n)
	for i := range qs {
		q, err := pql.Parse(fmt.Sprintf("SELECT sum(clicks), count(*) FROM events WHERE revenue <= %d.%02d GROUP BY day, country", 1+i/100, i%100))
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	// Fewer collections, each run from a collected heap: every collection
	// empties the pools a query draws its buffers from.
	defer debug.SetGCPercent(debug.SetGCPercent(800))
	perQuery := func(e *Engine) float64 {
		runtime.GC()
		warm, _ := pql.Parse("SELECT sum(clicks) FROM events GROUP BY country")
		if _, _, err := e.Execute(context.Background(), warm, segs, nil); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, q := range qs {
			if _, _, err := e.Execute(context.Background(), q, segs, nil); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	// The least of three runs each way, alternated: what a run allocates
	// beside the queries only ever adds. Under the race detector that is a
	// lot — sync.Pool drops a quarter of what is put back, so a query
	// rebuilds its scratch buffers at random — and the difference of the two
	// minima still varies by ±600 bytes, so the bound is on bytes, between
	// what the tier costs and what encoding would.
	off, on := math.Inf(1), math.Inf(1)
	for run := 0; run < 3; run++ {
		off = min(off, perQuery(&Engine{}))
		cache := qcache.New(qcache.Config{Tier: "aggregate", Metrics: metrics.NewRegistry()})
		on = min(on, perQuery(&Engine{AggCache: cache}))
		if cache.Len() != 0 {
			t.Fatalf("%d distinct queries left %d entries, want none", n, cache.Len())
		}
	}
	t.Logf("%.0f bytes allocated per query with the tier, %.0f without", on, off)
	if on-off > 2048 {
		t.Fatalf("a query allocates %.0f bytes with the tier and %.0f without: more than 2 KB apart", on, off)
	}
}

// TestAggCacheThirdRunHitsEveryImmutableSegment: the first run of a query
// is a sighting, the second stores, and the third is answered from the tier
// on every immutable segment, while the consuming one is executed live (its
// 300 rows are in the answer) and never stored.
func TestAggCacheThirdRunHitsEveryImmutableSegment(t *testing.T) {
	segs := aggCacheFixture(t)
	reg := metrics.NewRegistry()
	cache := qcache.New(qcache.Config{Tier: "aggregate", Metrics: reg})
	var executed atomic.Int64 // cacheable segments executed on a miss
	e := &Engine{AggCache: cache, afterMiss: func(*Intermediate) { executed.Add(1) }}
	q, err := pql.Parse("SELECT count(*), max(revenue) FROM events GROUP BY browser")
	if err != nil {
		t.Fatal(err)
	}
	run := func(e *Engine) *Result {
		merged, _, err := e.Execute(context.Background(), q, segs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return merged.Finalize(q)
	}
	run(e)
	run(e)
	executed.Store(0)
	hits0 := reg.Value("pinot_cache_hits_total", "aggregate", "events")
	third := run(e)
	if got := reg.Value("pinot_cache_hits_total", "aggregate", "events") - hits0; got != 3 {
		t.Fatalf("the third run hit %d segments, want the 3 immutable ones", got)
	}
	if n := executed.Load(); n != 0 {
		t.Fatalf("the third run executed %d immutable segments, want none", n)
	}
	if n := cache.InvalidateScope("rt0"); n != 0 {
		t.Fatalf("the consuming segment has %d entries", n)
	}
	if off := run(&Engine{}); !reflect.DeepEqual(third, off) || third.Stats.NumDocsScanned != 3*400+300 {
		t.Fatalf("the third run diverges from cache-off:\n  off:   %+v\n  third: %+v", off, third)
	}
}

// TestAggCacheSelectionsMakeNoDoorkeeper: the doorkeeper's table is made on
// the first aggregation a tier is asked to store, so a tier that only ever
// serves selections allocates nothing for it. The aggregation is the
// control: the same measurement sees the table there. Both comparisons allow
// half the table: under the race detector a run's own allocations vary enough
// that the cached aggregation measures a little under the uncached one plus
// the whole table.
func TestAggCacheSelectionsMakeNoDoorkeeper(t *testing.T) {
	segs := aggCacheFixture(t)
	cost := func(text string, cached bool) uint64 {
		q, err := pql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		// A fresh tier for each of allocatedBy's tries, so large that its
		// table (512 KiB) stands out of the noise of a query's allocations.
		var caches []*qcache.Cache
		for i := 0; i < 3; i++ {
			caches = append(caches, qcache.New(qcache.Config{Tier: "aggregate", MaxBytes: 1 << 30, Metrics: metrics.NewRegistry()}))
		}
		return allocatedBy(func() {
			e := &Engine{}
			if cached {
				e.AggCache, caches = caches[0], caches[1:]
			}
			if _, _, err := e.Execute(context.Background(), q, segs, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	const table = (1 << 30) / (16 << 10) * 8
	sel := "SELECT country, clicks FROM events WHERE clicks > 50 ORDER BY clicks LIMIT 10"
	agg := "SELECT sum(clicks) FROM events WHERE clicks > 50"
	selOff, selOn := cost(sel, false), cost(sel, true)
	aggOff, aggOn := cost(agg, false), cost(agg, true)
	t.Logf("selection %d → %d bytes, aggregation %d → %d bytes, cache off → on", selOff, selOn, aggOff, aggOn)
	if aggOn < aggOff+table/2 {
		t.Fatalf("an aggregation on a fresh tier allocates %d bytes, %d without: the measurement cannot see the table", aggOn, aggOff)
	}
	if selOn > selOff+table/2 {
		t.Fatalf("a selection on a fresh tier allocates %d bytes, %d without: it made the doorkeeper's table", selOn, selOff)
	}
}

// TestAggCacheCorruptEntryIsAMiss: bytes that no longer decode are a miss.
// The segment is executed, the answer is the cold answer, the entry is
// replaced by a good one, and nothing panics.
func TestAggCacheCorruptEntryIsAMiss(t *testing.T) {
	segs := aggCacheFixture(t)[:3]
	cache := qcache.New(qcache.Config{Tier: "aggregate", Metrics: metrics.NewRegistry()})
	var executed atomic.Int64
	e := &Engine{AggCache: cache, afterMiss: func(*Intermediate) { executed.Add(1) }}
	q, err := pql.Parse("SELECT sum(clicks), count(*) FROM events GROUP BY country")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		merged, excs, err := e.Execute(context.Background(), q, segs, nil)
		if err != nil || len(excs) > 0 {
			t.Fatalf("err = %v, exceptions = %v", err, excs)
		}
		return merged.Finalize(q)
	}
	cold := run()
	run() // the second sighting stores
	stored := storedBytes(t, cache, segs[1], q)
	good, err := DecodeIntermediate(stored)
	if err != nil {
		t.Fatal(err)
	}
	stored[0] ^= 0xff // the result kind: no longer one the decoder knows
	if _, err := DecodeIntermediate(stored); err == nil {
		t.Fatal("the damaged entry still decodes; the test damages nothing")
	}
	before := executed.Load()
	if got := run(); !reflect.DeepEqual(got, cold) {
		t.Fatalf("the answer over a damaged entry diverges:\n got %+v\nwant %+v", got, cold)
	}
	if n := executed.Load() - before; n != 1 {
		t.Fatalf("%d segments executed over one damaged entry, want 1", n)
	}
	if now, err := DecodeIntermediate(storedBytes(t, cache, segs[1], q)); err != nil || !reflect.DeepEqual(now, good) {
		t.Fatalf("the damaged entry was not replaced by a good one: %v", err)
	}
	if cache.Len() != 3 {
		t.Fatalf("%d entries, want 3", cache.Len())
	}
}

// TestAggCacheUnencodableResultIsNotStored: a result the layout cannot carry
// (here an expression node the parser never builds) is answered as computed
// and leaves no entry, even on the second sighting that would store it.
func TestAggCacheUnencodableResultIsNotStored(t *testing.T) {
	segs := aggCacheFixture(t)[:1]
	cache := qcache.New(qcache.Config{Tier: "aggregate", Metrics: metrics.NewRegistry()})
	e := &Engine{AggCache: cache, afterMiss: func(r *Intermediate) {
		r.AggExprs[0].Arg = unknownExpr{}
	}}
	q, err := pql.Parse("SELECT count(*) FROM events GROUP BY country")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, excs, err := e.Execute(context.Background(), q, segs, nil)
		if err != nil || len(excs) > 0 {
			t.Fatalf("err = %v, exceptions = %v", err, excs)
		}
		if got.Groups.Len() != 7 || got.AggExprs[0].Arg != (unknownExpr{}) || got.Groups.State(0, 0).Count == 0 {
			t.Fatalf("the result was not answered as computed: %+v", got.Groups)
		}
	}
	if cache.Len() != 0 {
		t.Fatalf("an unencodable result left %d entries", cache.Len())
	}
	e.afterMiss = nil
	if _, _, err := e.Execute(context.Background(), q, segs, nil); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Fatalf("the same query, encodable, left %d entries, want 1", cache.Len())
	}
}

// TestCacheBytesBoundHeap holds the tier's byte count to what the tier
// occupies: after 2 000 distinct group-by results, each run twice so that it
// is stored, the live heap has grown by
// no more than cache.Bytes() and 300 bytes an entry (the index: a list
// element, an entry and a map slot per key, and allocator size classes —
// some 210 to 260 bytes whatever the value's size, which is why this is not
// a ratio: the columnar layout took the values of this test from 1 270 bytes
// to 390 and left the index where it was). When the values were object
// graphs priced by an estimate the heap grew by about twice the charge.
func TestCacheBytesBoundHeap(t *testing.T) {
	segs := aggCacheFixture(t)[:1]
	cache := qcache.New(qcache.Config{Tier: "aggregate", Metrics: metrics.NewRegistry()})
	e := &Engine{AggCache: cache}
	run := func(text string) {
		q, err := pql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.Execute(context.Background(), q, segs, nil); err != nil {
			t.Fatal(err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	// Warm the pools, the table's counters and the doorkeeper's table.
	run("SELECT sum(clicks), count(*) FROM events GROUP BY day")
	run("SELECT sum(clicks), count(*) FROM events GROUP BY day")
	cache.InvalidateAll()
	before := heap()
	const entries = 2000
	for i := 0; i < entries; i++ {
		text := fmt.Sprintf("SELECT sum(clicks), count(*) FROM events WHERE clicks >= %d AND memberId <= %d GROUP BY day", i%50, 10+i/50)
		run(text)
		run(text)
	}
	after := heap()
	if cache.Len() != entries {
		t.Fatalf("%d entries, want %d", cache.Len(), entries)
	}
	grown, charged := float64(after)-float64(before), float64(cache.Bytes())
	t.Logf("heap grew %.0f bytes for %.0f charged: %.2fx (%.0f bytes per entry)", grown, charged, grown/charged, grown/entries)
	if grown > charged+300*entries {
		t.Fatalf("the heap grew %.0f bytes, %.0f an entry more than the %.0f the tier says it holds; want <= 300", grown, (grown-charged)/entries, charged)
	}
	runtime.KeepAlive(cache)
}

// TestIntermediateCloneIsDeep pins Clone's isolation at the data-structure
// level for every result shape.
func TestIntermediateCloneIsDeep(t *testing.T) {
	exprs := []pql.Expression{{IsAgg: true, Func: pql.DistinctCount, Column: "browser"}, {IsAgg: true, Func: "PERCENTILE50", Column: "ms"}}
	orig := &Intermediate{Kind: KindGroupBy, AggExprs: exprs, GroupCols: []string{"country"},
		Groups: NewGroupTable(1, exprs), Stats: Stats{NumDocsScanned: 10}}
	us := mustUpsert(t, orig.Groups, "us")
	orig.Groups.SetState(us, 0, AggState{Distinct: map[string]struct{}{"chrome": {}}})
	orig.Groups.SetState(us, 1, AggState{Values: []float64{1}})
	cp := orig.Clone()
	cp.Groups.SetState(mustUpsert(t, cp.Groups, "us"), 0, AggState{Distinct: map[string]struct{}{"edge": {}}})
	cp.Groups.State(us, 1).Values[0] = 2
	mustUpsert(t, cp.Groups, "de")
	cp.Stats.NumDocsScanned = 99
	if orig.Groups.Len() != 1 || len(orig.Groups.State(us, 0).Distinct) != 1 || orig.Groups.State(us, 1).Values[0] != 1 ||
		orig.Groups.Values(us)[0] != "us" || orig.Stats.NumDocsScanned != 10 {
		t.Fatalf("Clone shares state with original: %+v", orig)
	}
	if cp.Groups.Len() != 2 || len(cp.Groups.State(us, 0).Distinct) != 2 {
		t.Fatalf("the clone did not take the writes: %+v", cp.Groups)
	}

	sel := mustSelection(KindSelection, []string{"a"}, 0, []any{int64(1)})
	sc := sel.Clone()
	sc.Selection.cols[0].nums[0] = 2
	if err := sc.AppendRow(int64(3)); err != nil {
		t.Fatal(err)
	}
	if got := boxAll(sel.Selection); len(got) != 1 || got[0][0] != int64(1) {
		t.Fatalf("selection Clone shares rows: %v", got)
	}
}

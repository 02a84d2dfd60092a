package qcache

import (
	"fmt"
	"sync"
	"testing"

	"pinot/internal/metrics"
)

func TestGetPutBasics(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(Config{Tier: "result", MaxBytes: 8000, Metrics: reg}) // entries up to 1000 bytes

	if _, ok := c.Get("scope1", "events", "k1"); ok {
		t.Fatal("hit on empty cache")
	}
	if !c.Put("scope1", "events", "k1", "v1", 100) {
		t.Fatal("put rejected")
	}
	v, ok := c.Get("scope1", "events", "k1")
	if !ok || v.(string) != "v1" {
		t.Fatalf("get = %v, %v", v, ok)
	}
	// An entry is charged its stated size plus its key ("k1").
	if c.Len() != 1 || c.Bytes() != 102 {
		t.Fatalf("len=%d bytes=%d", c.Len(), c.Bytes())
	}

	// Replacement updates bytes in place.
	c.Put("scope1", "events", "k1", "v2", 250)
	if c.Len() != 1 || c.Bytes() != 252 {
		t.Fatalf("after replace len=%d bytes=%d", c.Len(), c.Bytes())
	}
	v, _ = c.Get("scope1", "events", "k1")
	if v.(string) != "v2" {
		t.Fatalf("replace not visible: %v", v)
	}

	if got := reg.Value("pinot_cache_hits_total", "result", "events"); got != 2 {
		t.Fatalf("hits = %d, want 2", got)
	}
	if got := reg.Value("pinot_cache_misses_total", "result", "events"); got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
	// What a hit saves is the value, not the key the caller already had.
	if got := reg.Total("pinot_cache_bytes_saved_total"); got != 350 {
		t.Fatalf("bytes saved = %d, want 350", got)
	}
}

// TestAdmissionRejectsOversized: the entry-size cap is MaxBytes/8, here 100.
func TestAdmissionRejectsOversized(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(Config{Tier: "agg", MaxBytes: 800, Metrics: reg})
	if c.Put("s", "t", "big", "x", 101) {
		t.Fatal("entry above MaxBytes/8 admitted")
	}
	if c.Len() != 0 {
		t.Fatal("oversized entry stored")
	}
	if got := reg.Total("pinot_cache_admission_rejects_total"); got != 1 {
		t.Fatalf("rejects = %d", got)
	}
	if !c.Put("s", "t", "ok", "x", 98) {
		t.Fatal("entry at the cap rejected")
	}
	// The key counts against the cap: what is bounded is what is held.
	if c.Put("s", "t", "a-key-of-twenty-bytes", "x", 90) {
		t.Fatal("entry whose key takes it past the cap admitted")
	}
}

func TestLRUEviction(t *testing.T) {
	reg := metrics.NewRegistry()
	// Eight entries of 101 bytes (100 and a one-byte key) fill the bound.
	c := New(Config{Tier: "result", MaxBytes: 808, Metrics: reg})
	for i, k := range "abcdefgh" {
		c.Put("s", "t", string(k), i, 100)
	}
	// Touch "a" so "b" is the LRU victim.
	c.Get("s", "t", "a")
	c.Put("s", "t", "i", 8, 100)
	if _, ok := c.Get("s", "t", "b"); ok {
		t.Fatal("LRU victim b survived")
	}
	for _, k := range "acdefghi" {
		if _, ok := c.Get("s", "t", string(k)); !ok {
			t.Fatalf("%c evicted unexpectedly", k)
		}
	}
	if got := reg.Total("pinot_cache_evictions_total"); got != 1 {
		t.Fatalf("evictions = %d", got)
	}
	if c.Bytes() != 808 {
		t.Fatalf("bytes = %d", c.Bytes())
	}
}

func TestInvalidateScope(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(Config{Tier: "result", MaxBytes: 10000, Metrics: reg})
	c.Put("seg1", "events", "k1", 1, 10)
	c.Put("seg1", "events", "k2", 2, 10)
	c.Put("seg2", "events", "k1", 3, 10)
	if n := c.InvalidateScope("seg1"); n != 2 {
		t.Fatalf("invalidated %d, want 2", n)
	}
	if n := c.InvalidateScope("seg1"); n != 0 {
		t.Fatalf("second invalidation dropped %d", n)
	}
	if _, ok := c.Get("seg2", "events", "k1"); !ok {
		t.Fatal("unrelated scope invalidated")
	}
	if c.Len() != 1 || c.Bytes() != 12 {
		t.Fatalf("len=%d bytes=%d", c.Len(), c.Bytes())
	}
	if got := reg.Total("pinot_cache_invalidations_total"); got != 2 {
		t.Fatalf("invalidations = %d, want exactly 2", got)
	}
}

// TestScopesDoNotCollide holds what the one index must: (scope, key) is the
// identity, so a scope and key that concatenate alike stay apart, and a
// scope's last entry leaving takes the scope's map with it.
func TestScopesDoNotCollide(t *testing.T) {
	c := New(Config{Tier: "result", MaxBytes: 10000})
	c.Put("a", "t", "\x00b", 1, 10)
	c.Put("a\x00", "t", "b", 2, 10)
	c.Put("", "t", "a\x00\x00b", 3, 10)
	for i, sk := range [][2]string{{"a", "\x00b"}, {"a\x00", "b"}, {"", "a\x00\x00b"}} {
		if v, ok := c.Get(sk[0], "t", sk[1]); !ok || v.(int) != i+1 {
			t.Fatalf("(%q, %q) = %v, %v", sk[0], sk[1], v, ok)
		}
	}
	if n := c.InvalidateScope("a"); n != 1 || c.Len() != 2 {
		t.Fatalf("invalidated %d, %d left", n, c.Len())
	}
	c.mu.Lock()
	_, kept := c.byScope["a"]
	c.mu.Unlock()
	if kept {
		t.Fatal("an emptied scope keeps its map")
	}
}

// TestLookupDoesNotCopyTheKey: keys are canonical PQL, a few hundred bytes; a
// hit and a miss must not build one. What a lookup still allocates is the
// metrics registry's label join, once per counter it touches (hits and bytes
// saved on a hit, misses on a miss) — four for the three lookups below.
func TestLookupDoesNotCopyTheKey(t *testing.T) {
	c := New(Config{Tier: "result", MaxBytes: 10000, Metrics: metrics.NewRegistry()})
	key := "SELECT count(*) FROM events WHERE country = 'us' GROUP BY browser TOP 10"
	c.Put("events_OFFLINE", "events", key, 1, 10)
	c.Get("events_OFFLINE", "events", key) // the first lookup creates the table's counters
	c.Get("events_OFFLINE", "events", "absent")
	if n := testing.AllocsPerRun(100, func() {
		c.Get("events_OFFLINE", "events", key)
		c.Get("events_OFFLINE", "events", "absent")
		c.Get("no such scope", "events", key)
	}); n > 4 {
		t.Fatalf("three lookups allocate %v times, want the 4 label joins", n)
	}
}

func TestInvalidateAll(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(Config{Tier: "result", MaxBytes: 10000, Metrics: reg})
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("seg%d", i), "events", "k", i, 10)
	}
	if n := c.InvalidateAll(); n != 5 {
		t.Fatalf("invalidated %d, want 5", n)
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("len=%d bytes=%d after InvalidateAll", c.Len(), c.Bytes())
	}
	if got := reg.Total("pinot_cache_invalidations_total"); got != 5 {
		t.Fatalf("invalidations = %d", got)
	}
	c.Put("seg1", "events", "k", 1, 10)
	if _, ok := c.Get("seg1", "events", "k"); !ok {
		t.Fatal("cache unusable after InvalidateAll")
	}
}

func TestEvictionNeverExceedsBound(t *testing.T) {
	c := New(Config{Tier: "result", MaxBytes: 3200}) // entries up to 400 bytes
	for i := 0; i < 200; i++ {
		c.Put("s", "t", fmt.Sprintf("k%d", i), i, int64(50+i%300))
		if c.Bytes() > 3200 {
			t.Fatalf("bytes %d exceeded bound after put %d", c.Bytes(), i)
		}
	}
	if c.Len() == 0 {
		t.Fatal("cache emptied itself")
	}
}

// TestTierGaugesSumEveryCache: the bytes and entries gauges are per tier,
// and two servers' aggregate tiers share one registry in the in-process
// cluster. Through puts, replacements, evictions and both invalidations on
// either cache, each gauge must read the sum over both, not the last writer.
func TestTierGaugesSumEveryCache(t *testing.T) {
	reg := metrics.NewRegistry()
	a := New(Config{Tier: "aggregate", MaxBytes: 800, Metrics: reg})
	b := New(Config{Tier: "aggregate", MaxBytes: 800, Metrics: reg})
	check := func(step string) {
		t.Helper()
		if got, want := reg.Value("pinot_cache_bytes", "aggregate"), a.Bytes()+b.Bytes(); got != want {
			t.Fatalf("after %s: bytes gauge %d, caches hold %d", step, got, want)
		}
		if got, want := reg.Value("pinot_cache_entries", "aggregate"), int64(a.Len()+b.Len()); got != want {
			t.Fatalf("after %s: entries gauge %d, caches hold %d", step, got, want)
		}
	}
	for i := 0; i < 12; i++ {
		a.Put(fmt.Sprintf("seg%d", i%3), "events", fmt.Sprintf("k%d", i), i, 90)
	}
	check("puts that evict on one cache")
	for i := 0; i < 5; i++ {
		b.Put(fmt.Sprintf("seg%d", i%3), "events", fmt.Sprintf("k%d", i), i, 40)
	}
	check("puts on the other")
	a.Put("seg2", "events", "k11", 0, 20)
	b.Put("seg0", "events", "k0", 0, 70)
	check("replacements")
	if reg.Total("pinot_cache_evictions_total") == 0 {
		t.Fatal("nothing was evicted; the test covers no eviction")
	}
	if b.InvalidateScope("seg1") == 0 {
		t.Fatal("the scope invalidation dropped nothing")
	}
	check("a scope invalidation")
	if a.InvalidateAll() == 0 {
		t.Fatal("InvalidateAll dropped nothing")
	}
	check("InvalidateAll")
	b.InvalidateAll()
	check("both emptied")
	if got := reg.Value("pinot_cache_bytes", "aggregate"); got != 0 {
		t.Fatalf("bytes gauge %d over two empty caches", got)
	}
}

// TestAdmitOnSecondSighting pins the doorkeeper: a key is admitted on its
// second sighting, a resident key at once; a first sighting is counted as a
// deferred admission; the table is made on the first Admit, sized from the
// bound.
func TestAdmitOnSecondSighting(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(Config{Tier: "aggregate", Metrics: reg})
	c.Put("seg0", "events", "resident", 1, 10)
	c.Get("seg0", "events", "absent")
	if c.seen != nil {
		t.Fatal("the doorkeeper table was made before anything asked it")
	}
	if !c.Admit("seg0", "events", "resident") {
		t.Fatal("a resident key (a replacement) waited for a second sighting")
	}
	if c.Admit("seg0", "events", "k") {
		t.Fatal("a first sighting was admitted")
	}
	if !c.Admit("seg0", "events", "k") {
		t.Fatal("a second sighting was not admitted")
	}
	if c.Admit("seg1", "events", "k") {
		t.Fatal("the same key under another scope was admitted on its first sighting")
	}
	if got := reg.Value("pinot_cache_admission_deferred_total", "aggregate", "events"); got != 2 {
		t.Fatalf("deferred admissions = %d, want 2", got)
	}
	if len(c.seen) != 4096 {
		t.Fatalf("doorkeeper of %d slots at the default bound, want 4096", len(c.seen))
	}
	small := New(Config{Tier: "aggregate", MaxBytes: 1000, Metrics: reg})
	small.Admit("s", "t", "k")
	if len(small.seen) != minDoorkeeperSlots {
		t.Fatalf("doorkeeper of %d slots for a 1000-byte tier, want %d", len(small.seen), minDoorkeeperSlots)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(Config{Tier: "result", MaxBytes: 5000})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", i%40)
				scope := fmt.Sprintf("s%d", i%4)
				switch i % 5 {
				case 0:
					c.Put(scope, "t", key, i, int64(10+i%90))
				case 3:
					c.Admit(scope, "t", key)
				case 4:
					c.InvalidateScope(scope)
				default:
					c.Get(scope, "t", key)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Bytes() > 5000 {
		t.Fatalf("bytes %d exceeded bound", c.Bytes())
	}
}

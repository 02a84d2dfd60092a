package cluster

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"pinot/internal/broker"
	"pinot/internal/metrics"
)

// maskedCanonical renders a response for cache-on/cache-off comparison: it
// strips Stats.ResultCacheHit — the single field allowed to differ between
// a cached and a cold response — and returns it alongside the canonical
// string of everything else.
func maskedCanonical(pqlText string, res *broker.Response) (string, bool) {
	hit := res.Stats.ResultCacheHit
	res.Stats.ResultCacheHit = false
	s := canonicalResponse(pqlText, res)
	res.Stats.ResultCacheHit = hit
	return s, hit
}

// TestResultCacheWarmIdentityAndStats is the mixed hot/cold regression for
// the broker result cache over an offline table: a warm run must be
// byte-identical to its cold run except for the hit flag, and the pruning
// accounting identity (pruned-by-* plus matched equals candidates) must
// hold on cache-hit paths exactly as it does on cold ones.
func TestResultCacheWarmIdentityAndStats(t *testing.T) {
	c, err := NewLocal(Options{Servers: 2, BrokerTemplate: broker.Config{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	loadTimeSlicedOffline(t, c, 1)

	aggQueries := []string{
		"SELECT count(*) FROM events",
		"SELECT sum(clicks), avg(clicks) FROM events WHERE country = 'us'",
		"SELECT count(*), sum(clicks) FROM events WHERE day BETWEEN 100 AND 204",
		"SELECT min(clicks), max(clicks) FROM events WHERE day >= 300",
		"SELECT count(*) FROM events GROUP BY country",
		"SELECT sum(clicks) FROM events WHERE day < 300 GROUP BY country TOP 2",
		"SELECT count(*) FROM events WHERE day BETWEEN 9000 AND 9001", // pruned to empty
	}
	for _, pqlText := range aggQueries {
		cold, err := c.Execute(context.Background(), pqlText)
		if err != nil {
			t.Fatalf("%q cold: %v", pqlText, err)
		}
		warm, err := c.Execute(context.Background(), pqlText)
		if err != nil {
			t.Fatalf("%q warm: %v", pqlText, err)
		}
		coldCanon, coldHit := maskedCanonical(pqlText, cold)
		warmCanon, warmHit := maskedCanonical(pqlText, warm)
		if coldHit {
			t.Errorf("%q: cold run marked as cache hit", pqlText)
		}
		// Queries pruned to empty at the broker never reach the scatter, so
		// there is nothing to cache — every other aggregation must hit warm.
		prunedEmpty := cold.Stats.SegmentsPrunedByBroker == cold.Stats.NumSegmentsQueried
		if !prunedEmpty && !warmHit {
			t.Errorf("%q: warm run missed the result cache", pqlText)
		}
		if coldCanon != warmCanon {
			t.Errorf("%q: warm response diverges from cold:\n  cold: %s\n  warm: %s", pqlText, coldCanon, warmCanon)
		}
		for label, res := range map[string]*broker.Response{"cold": cold, "warm": warm} {
			if got, want := pruneIdentity(res.Stats), res.Stats.NumSegmentsQueried; got != want {
				t.Errorf("%q %s: pruning identity broken: pruned+matched=%d, candidates=%d (%+v)",
					pqlText, label, got, want, res.Stats)
			}
		}
	}

	// Selections stay out of the cache: the row merge order across scatter
	// groups is not deterministic, so caching them would break the
	// byte-identical contract.
	sel := "SELECT memberId, clicks FROM events WHERE day BETWEEN 100 AND 104 ORDER BY clicks LIMIT 10"
	for i := 0; i < 2; i++ {
		res, err := c.Execute(context.Background(), sel)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.ResultCacheHit {
			t.Fatalf("selection run %d served from result cache", i)
		}
	}

	reg := c.Metrics
	if hits := reg.Value("pinot_cache_hits_total", "result", "events"); hits == 0 {
		t.Fatal("result-cache hit counter never moved")
	}
}

// TestResultCacheSealInvalidationExactlyOnce drives the headline realtime
// scenario: cached entries cover only the sealed (immutable) portion, a hit
// still reflects rows arriving in consuming segments, and sealing a
// consuming segment mid-run invalidates each affected entry exactly once —
// after which the next query misses and returns the post-seal rows.
func TestResultCacheSealInvalidationExactlyOnce(t *testing.T) {
	c, err := NewLocal(Options{Servers: 2, BrokerTemplate: broker.Config{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if _, err := c.Streams.CreateTopic("events", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(realtimeConfig(t, 2, 50)); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForConsuming("rtevents_REALTIME", 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// 100 rows per partition: two sealed segments each, plus an empty
	// consuming tail. Wait for the successor consuming segments as well —
	// their registration is one more external-view transition, and the
	// exactly-once accounting below needs a quiescent view to start from.
	produceEvents(t, c, "events", 0, 200)
	if err := c.WaitForOnline("rtevents_REALTIME", 4, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForConsuming("rtevents_REALTIME", 2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	settle := func(want int64) *broker.Response {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			res, err := c.Execute(context.Background(), "SELECT count(*) FROM rtevents")
			if err == nil && !res.Partial && res.Rows[0][0].(int64) == want {
				return res
			}
			if time.Now().After(deadline) {
				t.Fatalf("never saw %d realtime rows (last: %v, %v)", want, res, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	settle(200)

	// Populate distinct entries and verify each hits warm.
	corpus := []string{
		"SELECT count(*) FROM rtevents",
		"SELECT sum(clicks) FROM rtevents GROUP BY country",
		"SELECT max(clicks), min(clicks) FROM rtevents WHERE country = 'us'",
	}
	for _, pqlText := range corpus {
		if _, err := c.Execute(context.Background(), pqlText); err != nil {
			t.Fatalf("%q cold: %v", pqlText, err)
		}
		res, err := c.Execute(context.Background(), pqlText)
		if err != nil {
			t.Fatalf("%q warm: %v", pqlText, err)
		}
		if !res.Stats.ResultCacheHit {
			t.Fatalf("%q: warm run missed", pqlText)
		}
	}

	// Rows arriving in consuming segments (15 per partition, below the
	// 50-row seal threshold) must show up even when the immutable portion
	// is served from cache.
	produceEvents(t, c, "events", 200, 30)
	settle(230)
	res, err := c.Execute(context.Background(), "SELECT count(*) FROM rtevents")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.ResultCacheHit || res.Rows[0][0].(int64) != 230 {
		t.Fatalf("post-ingest count: hit=%v rows=%v — consuming rows should ride on the cached immutable portion",
			res.Stats.ResultCacheHit, res.Rows)
	}

	reg := c.Metrics
	cache := c.Broker().ResultCache()
	entries := cache.Len()
	if entries == 0 {
		t.Fatal("no cached entries before the seal")
	}
	base := reg.Value("pinot_cache_invalidations_total", "result", "rtevents")

	// Seal mid-run: 60 more rows per partition crosses the 50-row
	// threshold, transitioning each consuming segment to ONLINE. No queries
	// run while the transitions drain, so the invalidation counters must
	// advance by exactly one per cached entry, no matter how many external
	// view updates the seal produces.
	produceEvents(t, c, "events", 230, 120)
	deadline := time.Now().Add(10 * time.Second)
	for reg.Value("pinot_cache_invalidations_total", "result", "rtevents")-base < int64(entries) {
		if time.Now().After(deadline) {
			t.Fatalf("invalidations advanced by %d, want %d",
				reg.Value("pinot_cache_invalidations_total", "result", "rtevents")-base, entries)
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond) // let any further EV transitions drain
	if d := reg.Value("pinot_cache_invalidations_total", "result", "rtevents") - base; d != int64(entries) {
		t.Fatalf("invalidations advanced by %d, want exactly %d (once per entry)", d, entries)
	}

	// The next query must miss (version vector moved) and see the new rows.
	first, err := c.Execute(context.Background(), "SELECT count(*) FROM rtevents")
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.ResultCacheHit {
		t.Fatal("first post-seal query hit the cache despite the seal")
	}
	settle(350)
	if d := reg.Value("pinot_cache_invalidations_total", "result", "rtevents") - base; d != int64(entries) {
		t.Fatalf("post-seal queries moved the invalidation counter: %d, want %d", d, entries)
	}
}

// TestDifferentialResultCacheOnVsOff runs the full PR-4 corpus (~200
// queries) plus a Zipf-skewed repeat phase with interleaved ingestion
// through two brokers on one cluster — one with the result cache (the
// default), one with it disabled — and requires byte-identical responses,
// stats included, modulo the hit flag.
func TestDifferentialResultCacheOnVsOff(t *testing.T) {
	c, err := NewLocal(Options{Servers: 2, BrokerTemplate: broker.Config{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	loadOffline(t, c, 2)
	if _, err := c.Streams.CreateTopic("events", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(realtimeConfig(t, 2, 50)); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForConsuming("rtevents_REALTIME", 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	produceEvents(t, c, "events", 0, 200)
	// 200 rows over 2 partitions at a 50-row flush threshold seal 4 segments;
	// waiting for fewer lets the remaining seals commit mid-sweep, flipping a
	// replica from consuming to sealed between the on- and off-broker calls
	// and legitimately shifting the value-pruning counters.
	if err := c.WaitForOnline("rtevents_REALTIME", 4, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	offReg := metrics.NewRegistry()
	offBr := broker.New(broker.Config{
		Cluster:            c.Name,
		Instance:           "broker-nocache",
		Seed:               7,
		DisableResultCache: true,
		Metrics:            offReg,
	}, c.Store, c.Chaos)
	if err := offBr.Start(); err != nil {
		t.Fatal(err)
	}
	defer offBr.Stop()
	if offBr.ResultCache() != nil {
		t.Fatal("DisableResultCache left the cache tier constructed")
	}

	settle := func(br *broker.Broker, what string, want int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			res, err := br.Execute(context.Background(), "SELECT count(*) FROM rtevents", "")
			if err == nil && !res.Partial && res.Rows[0][0].(int64) == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s broker never saw %d realtime rows (last: %v, %v)", what, want, res, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	settle(c.Broker(), "cache-on", 200)
	settle(offBr, "cache-off", 200)

	queries := differentialQueries()
	if len(queries) < 200 {
		t.Fatalf("corpus has %d queries, want >= 200", len(queries))
	}
	mismatches := 0
	compare := func(pqlText string) {
		t.Helper()
		onRes, err := c.Broker().Execute(context.Background(), pqlText, "")
		if err != nil {
			t.Fatalf("cache-on broker failed %q: %v", pqlText, err)
		}
		offRes, err := offBr.Execute(context.Background(), pqlText, "")
		if err != nil {
			t.Fatalf("cache-off broker failed %q: %v", pqlText, err)
		}
		onCanon, _ := maskedCanonical(pqlText, onRes)
		offCanon, offHit := maskedCanonical(pqlText, offRes)
		if offHit {
			t.Fatalf("%q: cache-off broker reported a cache hit", pqlText)
		}
		if onCanon != offCanon {
			mismatches++
			t.Errorf("cache divergence on %q:\n  on:  %s\n  off: %s", pqlText, onCanon, offCanon)
			if mismatches >= 5 {
				t.Fatal("too many divergences, aborting")
			}
		}
	}
	// Cold sweep: the full corpus, populating the cache as it goes.
	for _, pqlText := range queries {
		compare(pqlText)
	}

	// Warm sweep: the cache-on broker answers its aggregations from its
	// result tier, while the cache-off broker scatters them to the servers a
	// third time. Their aggregate tier stores a per-segment partial on its
	// second sighting, so wherever the cold sweep reached one replica twice
	// this pass is a hit there, and must answer identically.
	aggHits := func() int64 {
		return c.Metrics.Value("pinot_cache_hits_total", "aggregate", "events") +
			c.Metrics.Value("pinot_cache_hits_total", "aggregate", "rtevents")
	}
	aggHits0 := aggHits()
	for _, pqlText := range queries {
		compare(pqlText)
	}
	if aggHits() == aggHits0 {
		t.Fatal("the warm sweep never hit the servers' aggregate tier")
	}

	// Zipf-skewed repeats with interleaved ingestion: a few hot queries
	// dominate (the realistic dashboard shape the small-result admission
	// bias is for) while realtime rows keep arriving between rounds.
	zipf := rand.NewZipf(rand.New(rand.NewSource(7)), 1.2, 1, uint64(len(queries)-1))
	produced := 200
	for round := 0; round < 3; round++ {
		produceEvents(t, c, "events", produced, 20)
		produced += 20
		settle(c.Broker(), "cache-on", int64(produced))
		settle(offBr, "cache-off", int64(produced))
		for i := 0; i < 60; i++ {
			compare(queries[zipf.Uint64()])
		}
	}

	onHits := c.Metrics.Value("pinot_cache_hits_total", "result", "events") +
		c.Metrics.Value("pinot_cache_hits_total", "result", "rtevents")
	if onHits == 0 {
		t.Fatal("cache-on broker never hit its result cache across the Zipf phase")
	}
	if offHits := offReg.Total("pinot_cache_hits_total"); offHits != 0 {
		t.Fatalf("cache-off broker recorded %d result-cache hits", offHits)
	}
	t.Logf("result cache hits during differential: %d (entries: %d, bytes: %d)",
		onHits, c.Broker().ResultCache().Len(), c.Broker().ResultCache().Bytes())
}

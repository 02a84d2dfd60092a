package cluster

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pinot/internal/broker"
	"pinot/internal/controller"
	"pinot/internal/httpapi"
	"pinot/internal/metrics"
	"pinot/internal/server"
	"pinot/internal/table"
	"pinot/internal/transport"
)

// TestMetricsEndToEnd boots a full cluster, runs a mixed query + ingest +
// minion workload, scrapes /metrics on the broker and controller HTTP
// handlers, and checks the exposition is (a) parseable by a real scraper and
// (b) internally consistent: per-table counters sum to the broker total, all
// seven subsystems are present, and the slow-query log is ordered.
func TestMetricsEndToEnd(t *testing.T) {
	reg := metrics.NewRegistry()
	// The transport's encode/decode instruments are process-global (the
	// HTTP data plane calls package functions); point them at this
	// cluster's registry for the test and restore the default after.
	transport.UseRegistry(reg)
	defer transport.UseRegistry(nil)

	c, err := NewLocal(Options{
		Servers:        2,
		Minions:        1,
		Metrics:        reg,
		BrokerTemplate: broker.Config{Seed: 5},
		ServerTemplate: server.Config{TenantTokens: 10, TenantRefill: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	// Offline workload: four segments, replicated, queried a few times.
	loadOffline(t, c, 2)
	for i := 0; i < 3; i++ {
		res, err := c.Execute(context.Background(), "SELECT count(*), sum(clicks) FROM events")
		if err != nil {
			t.Fatal(err)
		}
		assertFullCount(t, res)
	}
	if _, err := c.Broker().Execute(context.Background(), "SELECT count(*) FROM events WHERE country = 'us'", "gold"); err != nil {
		t.Fatal(err)
	}
	// One response per server call: a fresh query (the result cache has not
	// seen it) reaching N servers reads 3N data-plane frames. The counter is
	// process-wide, so that is the N requests the servers read and the one
	// segment frame and one trailer the broker reads back from each.
	recv := reg.Total("pinot_transport_frames_recv_total")
	fresh, err := c.Execute(context.Background(), "SELECT max(clicks) FROM events WHERE memberId > 3")
	if err != nil {
		t.Fatal(err)
	}
	if n := fresh.ServersQueried; n < 2 || fresh.ServersResponded != n || len(fresh.ServerExceptions) > 0 {
		t.Fatalf("fresh query: %d servers queried, %d responded, %v; want 2 clean calls", n, fresh.ServersResponded, fresh.ServerExceptions)
	}
	if got, want := reg.Total("pinot_transport_frames_recv_total")-recv, int64(3*fresh.ServersQueried); got != want {
		t.Fatalf("a query to %d servers read %d frames, want %d", fresh.ServersQueried, got, want)
	}
	// Two bad requests: unparseable PQL and an unknown table. Neither may
	// count as a served query.
	if _, err := c.Execute(context.Background(), "SELECT FROM WHERE"); err == nil {
		t.Fatal("malformed PQL accepted")
	}
	if _, err := c.Execute(context.Background(), "SELECT count(*) FROM nosuchtable"); err == nil {
		t.Fatal("unknown table accepted")
	}

	// Realtime workload: two partitions flushing at 50 rows, so each
	// partition runs the completion protocol and commits a segment.
	if _, err := c.Streams.CreateTopic("events", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(realtimeConfig(t, 1, 50)); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForConsuming("rtevents_REALTIME", 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// No query runs until both segments are ONLINE, so what the data plane
	// reads meanwhile is the completion frames: each commit carries its
	// sealed segment to the lead controller's address.
	recvBytes := reg.Total("pinot_transport_bytes_recv_total")
	produceEvents(t, c, "events", 0, 120)
	if err := c.WaitForOnline("rtevents_REALTIME", 2, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	leader, ok := c.Leader()
	if !ok {
		t.Fatal("no leader")
	}
	metas, err := leader.SegmentMetas("rtevents_REALTIME")
	if err != nil {
		t.Fatal(err)
	}
	var committed, committedBytes int64
	for _, m := range metas {
		if m.Status == table.StatusDone {
			committed++
			committedBytes += m.SizeBytes
		}
	}
	if committed != 2 {
		t.Fatalf("%d segments committed, want 2", committed)
	}
	if got := reg.Total("pinot_transport_bytes_recv_total") - recvBytes; got < committedBytes {
		t.Fatalf("the data plane read %d bytes while segments of %d bytes committed", got, committedBytes)
	}
	waitForCount(t, c, "SELECT count(*) FROM rtevents", 120, 10*time.Second)

	// Minion workload: purge one value from one offline segment.
	err = leader.ScheduleTask(&controller.Task{
		ID:          "purge-1",
		Type:        controller.TaskPurge,
		Resource:    "events_OFFLINE",
		Segment:     "events_0",
		PurgeColumn: "memberId",
		PurgeValues: []string{"7"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// memberId 7 appears 5 times in each of the 4 segments.
	waitForCount(t, c, "SELECT count(*) FROM events WHERE memberId = 7", 15, 10*time.Second)

	// Every query above crossed the framed TCP data plane: the pool dialed
	// the servers and frames came back off the wire.
	for _, name := range []string{"pinot_transport_frames_recv_total", "pinot_transport_dials_total"} {
		if got := reg.Total(name); got <= 0 {
			t.Fatalf("%s = %d after the queries, want > 0", name, got)
		}
	}
	// The data plane streams frames and never encodes a whole response, so
	// pump one good and one hostile payload through the buffered codec.
	payload, err := transport.EncodeResponse(&transport.QueryResponse{Exceptions: []string{"none"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := transport.DecodeResponse(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := transport.DecodeResponse([]byte{0x01, 0x02, 0x03}); err == nil {
		t.Fatal("junk payload decoded")
	}

	// ---- Scrape the broker endpoint and validate the exposition. ----
	bh := httpapi.NewBrokerHandler(c.Broker())
	rec := httptest.NewRecorder()
	bh.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	samples, err := metrics.ParseText(body)
	if err != nil {
		t.Fatalf("broker /metrics not parseable: %v", err)
	}
	if len(samples) == 0 {
		t.Fatal("broker /metrics empty")
	}

	// Every subsystem shows up in one scrape (the cluster shares one
	// registry, so the broker endpoint carries them all).
	for _, name := range []string{
		"pinot_broker_queries_total",
		"pinot_server_queries_total",
		"pinot_consumer_rows_consumed_total",
		"pinot_controller_completion_verdicts_total",
		"pinot_tenancy_queue_wait_us",
		"pinot_minion_tasks_total",
		"pinot_transport_encodes_total",
	} {
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("subsystem metric %s missing from scrape", name)
		}
	}

	// Invariant: the per-table query counters sum to the unlabeled broker
	// total — the same increment site feeds both.
	perTable := metrics.SumBy(samples, "pinot_broker_queries_total", "table")
	var tableSum float64
	for _, v := range perTable {
		tableSum += v
	}
	total := metrics.SumBy(samples, "pinot_broker_requests_total", "")[""]
	if tableSum != total || total == 0 {
		t.Fatalf("sum of per-table queries = %v, broker total = %v", tableSum, total)
	}
	if perTable["events"] < 4 || perTable["rtevents"] < 1 {
		t.Fatalf("per-table counters too low: %v", perTable)
	}
	if got := metrics.SumBy(samples, "pinot_broker_bad_requests_total", "")[""]; got < 2 {
		t.Fatalf("bad requests = %v, want >= 2", got)
	}

	// Workload side effects, read back through the scrape.
	if got := reg.Total("pinot_consumer_rows_consumed_total"); got < 120 {
		t.Fatalf("consumer rows = %d, want >= 120", got)
	}
	if got := reg.Value("pinot_consumer_flushes_total", "server1", "rtevents_REALTIME", "rows") +
		reg.Value("pinot_consumer_flushes_total", "server2", "rtevents_REALTIME", "rows"); got < 2 {
		t.Fatalf("row-threshold flushes = %d, want >= 2", got)
	}
	commits := metrics.SumBy(samples, "pinot_controller_segments_committed_total", "resource")
	if commits["rtevents_REALTIME"] < 2 {
		t.Fatalf("committed segments = %v, want >= 2 for rtevents_REALTIME", commits)
	}
	// The rewritten segment becomes queryable before the minion books the
	// task, so give the counter a moment to land.
	taskDeadline := time.Now().Add(5 * time.Second)
	for reg.Value("pinot_minion_tasks_total", "minion1", string(controller.TaskPurge), "ok") != 1 {
		if time.Now().After(taskDeadline) {
			t.Fatalf("minion ok purge tasks = %d, want 1",
				reg.Value("pinot_minion_tasks_total", "minion1", string(controller.TaskPurge), "ok"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Value("pinot_transport_decode_failures_total"); got < 1 {
		t.Fatal("decode failure not counted")
	}

	// ---- JSON variant. ----
	rec = httptest.NewRecorder()
	bh.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	var jsonBody struct {
		Families []metrics.FamilySnapshot `json:"families"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &jsonBody); err != nil {
		t.Fatalf("JSON /metrics: %v", err)
	}
	found := false
	for _, f := range jsonBody.Families {
		if f.Name == "pinot_broker_requests_total" {
			found = true
		}
	}
	if !found {
		t.Fatal("JSON snapshot missing pinot_broker_requests_total")
	}

	// ---- Slow-query log. ----
	rec = httptest.NewRecorder()
	bh.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/queries", nil))
	var slow struct {
		Slowest []metrics.SlowQuery `json:"slowest"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &slow); err != nil {
		t.Fatalf("GET /debug/queries: %v", err)
	}
	if len(slow.Slowest) < 2 {
		t.Fatalf("slow log has %d entries, want >= 2", len(slow.Slowest))
	}
	for i := 1; i < len(slow.Slowest); i++ {
		if slow.Slowest[i].LatencyUs > slow.Slowest[i-1].LatencyUs {
			t.Fatalf("slow log not descending at %d: %d > %d",
				i, slow.Slowest[i].LatencyUs, slow.Slowest[i-1].LatencyUs)
		}
	}

	// ---- The controller endpoint scrapes the same registry. ----
	ch := httpapi.NewControllerHandler(leader)
	rec = httptest.NewRecorder()
	ch.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("controller GET /metrics = %d", rec.Code)
	}
	if _, err := metrics.ParseText(rec.Body.String()); err != nil {
		t.Fatalf("controller /metrics not parseable: %v", err)
	}
}

// TestAggregateTierDefersFirstSightings: N distinct aggregations over S
// immutable segments are N·S first sightings at the servers' aggregate
// tiers, each counted in pinot_cache_admission_deferred_total and none
// stored. A TOP variant of one of them misses at the broker (its PQL
// differs) but is the second sighting of the same per-segment key, so it
// stores S entries — spread over two servers whose tiers share the
// registry, and the tier's gauges read the sum.
func TestAggregateTierDefersFirstSightings(t *testing.T) {
	reg := metrics.NewRegistry()
	c, err := NewLocal(Options{Servers: 2, Metrics: reg, BrokerTemplate: broker.Config{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	loadOffline(t, c, 1)
	const segments = 4
	queries := []string{
		"SELECT count(*) FROM events GROUP BY country TOP 2",
		"SELECT sum(clicks) FROM events",
		"SELECT min(clicks), max(clicks) FROM events WHERE country = 'us'",
		"SELECT avg(clicks) FROM events GROUP BY memberId",
		"SELECT distinctcount(country) FROM events WHERE clicks > 10",
	}
	for _, q := range queries {
		res, err := c.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if res.Partial || res.Stats.NumSegmentsQueried != segments {
			t.Fatalf("%q: partial=%v over %d segments, want all %d", q, res.Partial, res.Stats.NumSegmentsQueried, segments)
		}
	}
	tierLen := func() (n int) {
		for _, s := range c.Servers {
			n += s.AggCache().Len()
		}
		return n
	}
	if got, want := reg.Value("pinot_cache_admission_deferred_total", "aggregate", "events"), int64(len(queries)*segments); got != want {
		t.Fatalf("deferred admissions = %d, want %d (N·S)", got, want)
	}
	if got := reg.Value("pinot_cache_entries", "aggregate"); got != 0 || tierLen() != 0 {
		t.Fatalf("aggregate tier holds %d entries (gauge %d), want none", tierLen(), got)
	}

	if _, err := c.Execute(context.Background(), "SELECT count(*) FROM events GROUP BY country TOP 5"); err != nil {
		t.Fatal(err)
	}
	if n := tierLen(); n != segments {
		t.Fatalf("the second sighting stored %d entries, want %d", n, segments)
	}
	if got := reg.Value("pinot_cache_entries", "aggregate"); got != segments {
		t.Fatalf("entries gauge = %d, the servers hold %d", got, segments)
	}
	var bytes int64
	for _, s := range c.Servers {
		bytes += s.AggCache().Bytes()
	}
	if got := reg.Value("pinot_cache_bytes", "aggregate"); got != bytes {
		t.Fatalf("bytes gauge = %d, the servers hold %d", got, bytes)
	}
}

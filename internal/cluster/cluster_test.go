package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"pinot/internal/broker"
	"pinot/internal/controller"
	"pinot/internal/helix"
	"pinot/internal/segment"
	"pinot/internal/server"
	"pinot/internal/startree"
	"pinot/internal/table"
)

func eventsSchema(t testing.TB) *segment.Schema {
	t.Helper()
	s, err := segment.NewSchema("events", []segment.FieldSpec{
		{Name: "country", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "memberId", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "clicks", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
		{Name: "day", Type: segment.TypeLong, Kind: segment.Time, SingleValue: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func buildBlob(t testing.TB, name string, start, n int, dayBase int64) []byte {
	t.Helper()
	b, err := segment.NewBuilder("events", name, eventsSchema(t), segment.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	countries := []string{"us", "de", "fr"}
	for i := start; i < start+n; i++ {
		err := b.Add(segment.Row{countries[i%3], int64(i % 20), int64(i), dayBase + int64(i%5)})
		if err != nil {
			t.Fatal(err)
		}
	}
	seg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := seg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func offlineConfig(t testing.TB, replicas int) *table.Config {
	return &table.Config{
		Name:     "events",
		Type:     table.Offline,
		Schema:   eventsSchema(t),
		Replicas: replicas,
	}
}

func TestOfflineUploadAndQuery(t *testing.T) {
	c, err := NewLocal(Options{Controllers: 2, Servers: 3, Brokers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.AddTable(offlineConfig(t, 2)); err != nil {
		t.Fatal(err)
	}
	// Duplicate table rejected.
	if err := c.AddTable(offlineConfig(t, 2)); err == nil {
		t.Fatal("duplicate table accepted")
	}
	for i := 0; i < 4; i++ {
		blob := buildBlob(t, fmt.Sprintf("events_%d", i), i*100, 100, 100)
		if err := c.UploadSegment("events_OFFLINE", blob); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitForOnline("events_OFFLINE", 4, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(context.Background(), "SELECT count(*), sum(clicks) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("partial result: %v", res.Exceptions)
	}
	if got := res.Rows[0][0].(int64); got != 400 {
		t.Fatalf("count = %d, want 400", got)
	}
	if got := res.Rows[0][1].(float64); got != float64(399*400/2) {
		t.Fatalf("sum = %v", got)
	}
	// Replication: every segment gets 2 online replicas (WaitForOnline
	// returns at the first, so the second may still be loading).
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		ev, err := c.ExternalView("events_OFFLINE")
		if err != nil {
			t.Fatal(err)
		}
		short := ""
		for seg := range ev.Partitions {
			if n := len(ev.InstancesFor(seg, helix.StateOnline)); n != 2 {
				short = fmt.Sprintf("segment %s has %d replicas", seg, n)
			}
		}
		if short == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal(short)
		}
	}
	// Group-by through the full distributed path.
	gres, err := c.Execute(context.Background(), "SELECT count(*) FROM events GROUP BY country TOP 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(gres.Rows) != 3 {
		t.Fatalf("groups = %v", gres.Rows)
	}
	var total int64
	for _, row := range gres.Rows {
		total += row[1].(int64)
	}
	if total != 400 {
		t.Fatalf("group total = %d", total)
	}
	// Unknown tables error.
	if _, err := c.Execute(context.Background(), "SELECT count(*) FROM nosuch"); err == nil {
		t.Fatal("unknown table accepted")
	}
}

func TestSegmentReplaceRefreshes(t *testing.T) {
	c, err := NewLocal(Options{Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.AddTable(offlineConfig(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.UploadSegment("events_OFFLINE", buildBlob(t, "events_0", 0, 50, 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForOnline("events_OFFLINE", 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Replace with a bigger version (updates and corrections, paper 3.1).
	if err := c.UploadSegment("events_OFFLINE", buildBlob(t, "events_0", 0, 80, 100)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := c.Execute(context.Background(), "SELECT count(*) FROM events")
		if err == nil && !res.Partial && len(res.Rows) == 1 {
			if res.Rows[0][0].(int64) == 80 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("segment replace never took effect")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestQuotaEnforced(t *testing.T) {
	c, err := NewLocal(Options{Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	cfg := offlineConfig(t, 1)
	cfg.QuotaBytes = 4096
	if err := c.AddTable(cfg); err != nil {
		t.Fatal(err)
	}
	blob := buildBlob(t, "events_0", 0, 200, 100)
	if int64(len(blob)) < cfg.QuotaBytes {
		if err := c.UploadSegment("events_OFFLINE", blob); err != nil {
			t.Fatal(err)
		}
	}
	big := buildBlob(t, "events_big", 0, 5000, 100)
	if err := c.UploadSegment("events_OFFLINE", big); err == nil {
		t.Fatal("over-quota segment accepted")
	}
}

func TestServerFailureGracefulDegradation(t *testing.T) {
	c, err := NewLocal(Options{Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.AddTable(offlineConfig(t, 2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := c.UploadSegment("events_OFFLINE", buildBlob(t, fmt.Sprintf("events_%d", i), i*10, 10, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitForOnline("events_OFFLINE", 6, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Kill one server: with 2 replicas everything stays queryable once
	// the routing tables refresh.
	c.Servers[0].Kill()
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := c.Execute(context.Background(), "SELECT count(*) FROM events")
		if err == nil && !res.Partial && res.Rows[0][0].(int64) == 60 {
			break
		}
		if time.Now().After(deadline) {
			if err != nil {
				t.Fatalf("query after failure: %v", err)
			}
			t.Fatalf("query never recovered: partial=%v rows=%v", res.Partial, res.Rows)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestControllerFailover(t *testing.T) {
	c, err := NewLocal(Options{Controllers: 3, Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	leader, ok := c.Leader()
	if !ok {
		t.Fatal("no leader")
	}
	if err := leader.AddTable(offlineConfig(t, 1)); err != nil {
		t.Fatal(err)
	}
	// Non-leaders reject admin operations.
	for _, ctrl := range c.Controllers {
		if !ctrl.IsLeader() {
			if err := ctrl.UploadSegment("events_OFFLINE", buildBlob(t, "x", 0, 5, 100)); err != controller.ErrNotLeader {
				t.Fatalf("non-leader upload: %v", err)
			}
		}
	}
	leader.Stop()
	deadline := time.Now().Add(5 * time.Second)
	var newLeader *controller.Controller
	for time.Now().Before(deadline) {
		if l, ok := c.Leader(); ok && l != leader {
			newLeader = l
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if newLeader == nil {
		t.Fatal("no failover")
	}
	// The new leader serves uploads.
	if err := newLeader.UploadSegment("events_OFFLINE", buildBlob(t, "events_0", 0, 30, 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForOnline("events_OFFLINE", 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(context.Background(), "SELECT count(*) FROM events")
	if err != nil || res.Rows[0][0].(int64) != 30 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func TestRetentionGC(t *testing.T) {
	c, err := NewLocal(Options{Servers: 1, ControllerTemplate: controller.Config{RetentionInterval: 20 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	cfg := offlineConfig(t, 1)
	cfg.RetentionUnits = 10
	if err := c.AddTable(cfg); err != nil {
		t.Fatal(err)
	}
	// Old segment: days 100-104. New segment: days 200-204.
	if err := c.UploadSegment("events_OFFLINE", buildBlob(t, "events_old", 0, 20, 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.UploadSegment("events_OFFLINE", buildBlob(t, "events_new", 0, 20, 200)); err != nil {
		t.Fatal(err)
	}
	// The old segment (MaxTime 104 < 204-10) must be garbage collected.
	deadline := time.Now().Add(5 * time.Second)
	for {
		leader, _ := c.Leader()
		metas, err := leader.SegmentMetas("events_OFFLINE")
		if err == nil && len(metas) == 1 && metas[0].Name == "events_new" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retention never collected old segment: %v", metas)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Queries see only retained data.
	deadline = time.Now().Add(5 * time.Second)
	for {
		res, err := c.Execute(context.Background(), "SELECT count(*) FROM events")
		if err == nil && !res.Partial && res.Rows[0][0].(int64) == 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("query still sees expired data")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func realtimeConfig(t testing.TB, replicas, flushRows int) *table.Config {
	return &table.Config{
		Name:               "rtevents",
		Type:               table.Realtime,
		Schema:             eventsSchema(t),
		Replicas:           replicas,
		StreamTopic:        "events",
		FlushThresholdRows: flushRows,
	}
}

func produceEvents(t testing.TB, c *Cluster, topic string, start, n int) {
	th, err := c.Streams.Topic(topic)
	if err != nil {
		t.Fatal(err)
	}
	countries := []string{"us", "de", "fr"}
	for i := start; i < start+n; i++ {
		msg, _ := json.Marshal(map[string]any{
			"country":  countries[i%3],
			"memberId": i % 20,
			"clicks":   i,
			"day":      100 + i%5,
		})
		th.ProduceTo(i%th.NumPartitions(), []byte(fmt.Sprint(i%20)), msg)
	}
}

func TestRealtimeIngestionAndCompletion(t *testing.T) {
	c, err := NewLocal(Options{Servers: 3})
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
	// Events are visible in near realtime, before any flush.
	produceEvents(t, c, "events", 0, 30)
	waitForCount(t, c, "SELECT count(*) FROM rtevents", 30, 5*time.Second)

	// Push past the flush threshold on both partitions: segments commit
	// via the completion protocol and the next consuming segments open.
	produceEvents(t, c, "events", 30, 170)
	if err := c.WaitForOnline("rtevents_REALTIME", 2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	waitForCount(t, c, "SELECT count(*) FROM rtevents", 200, 10*time.Second)

	// Committed segment metadata is durable and consistent.
	leader, _ := c.Leader()
	metas, err := leader.SegmentMetas("rtevents_REALTIME")
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for _, m := range metas {
		if m.Status == table.StatusDone {
			done++
			if m.EndOffset <= m.StartOffset {
				t.Fatalf("bad committed offsets: %+v", m)
			}
			if m.ObjectKey == "" {
				t.Fatalf("committed segment missing blob: %+v", m)
			}
		}
	}
	if done < 2 {
		t.Fatalf("committed segments = %d, want >= 2", done)
	}
	// All replicas of each committed segment are ONLINE with identical
	// data: verify the count is exact (no duplicates or gaps across
	// replicas and the consuming remainder).
	res, err := c.Execute(context.Background(), "SELECT sum(clicks) FROM rtevents")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(float64); got != float64(199*200/2) {
		t.Fatalf("sum = %v, want %v", got, 199*200/2)
	}
}

func waitForCount(t testing.TB, c *Cluster, q string, want int64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last any
	for time.Now().Before(deadline) {
		res, err := c.Execute(context.Background(), q)
		if err == nil && len(res.Rows) == 1 {
			last = res.Rows[0][0]
			if got, ok := res.Rows[0][0].(int64); ok && got == want {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never reached %d (last %v)", q, want, last)
}

func TestHybridTableTimeBoundary(t *testing.T) {
	c, err := NewLocal(Options{Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if _, err := c.Streams.CreateTopic("events", 1); err != nil {
		t.Fatal(err)
	}
	// Realtime side of the hybrid table.
	rtCfg := realtimeConfig(t, 1, 1000)
	rtCfg.Name = "events"
	if err := c.AddTable(rtCfg); err != nil {
		t.Fatal(err)
	}
	// Offline side: days 100..104, 50 rows (clicks 0..49).
	if err := c.AddTable(offlineConfig(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.UploadSegment("events_OFFLINE", buildBlob(t, "events_0", 0, 50, 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForOnline("events_OFFLINE", 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForConsuming("events_REALTIME", 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Realtime events: days 104..110 (overlapping day 104 with offline).
	th, _ := c.Streams.Topic("events")
	rtRows := 0
	var rtClicksAtOrAfter104 int64
	for day := int64(104); day <= 110; day++ {
		for i := 0; i < 5; i++ {
			clicks := int64(1000 + rtRows)
			msg, _ := json.Marshal(map[string]any{"country": "us", "memberId": 1, "clicks": clicks, "day": day})
			th.ProduceTo(0, nil, msg)
			rtRows++
			rtClicksAtOrAfter104 += clicks
		}
	}
	waitForCount(t, c, "SELECT count(*) FROM events WHERE clicks >= 1000", int64(rtRows), 5*time.Second)

	// Hybrid query: offline serves day < 104 (its max is 104), realtime
	// serves day >= 104. Offline rows on day 104 are excluded to avoid
	// double counting with realtime (paper Figure 6).
	res, err := c.Execute(context.Background(), "SELECT count(*), sum(clicks) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	// Offline rows with day < 104: clicks i where i%5 != 4 (day=100+i%5).
	offCount, offSum := 0, int64(0)
	for i := 0; i < 50; i++ {
		if 100+int64(i%5) < 104 {
			offCount++
			offSum += int64(i)
		}
	}
	wantCount := int64(offCount + rtRows)
	wantSum := float64(offSum + rtClicksAtOrAfter104)
	if got := res.Rows[0][0].(int64); got != wantCount {
		t.Fatalf("hybrid count = %d, want %d", got, wantCount)
	}
	if got := res.Rows[0][1].(float64); got != wantSum {
		t.Fatalf("hybrid sum = %v, want %v", got, wantSum)
	}
}

func TestMinionPurgeTask(t *testing.T) {
	c, err := NewLocal(Options{Servers: 1, Minions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.AddTable(offlineConfig(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.UploadSegment("events_OFFLINE", buildBlob(t, "events_0", 0, 60, 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForOnline("events_OFFLINE", 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Purge memberId 7 (3 rows: 7, 27, 47).
	leader, _ := c.Leader()
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
	waitForCount(t, c, "SELECT count(*) FROM events WHERE memberId = 7", 0, 10*time.Second)
	waitForCount(t, c, "SELECT count(*) FROM events", 57, 10*time.Second)
	completed, failed := c.Minions[0].Counters()
	if completed != 1 || failed != 0 {
		t.Fatalf("minion counters = %d/%d", completed, failed)
	}
	// Task marked completed.
	tasks, err := leader.Tasks()
	if err != nil || len(tasks) != 1 || tasks[0].Status != controller.TaskCompleted {
		t.Fatalf("tasks = %+v err=%v", tasks, err)
	}
}

func TestDeleteTable(t *testing.T) {
	c, err := NewLocal(Options{Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.AddTable(offlineConfig(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.UploadSegment("events_OFFLINE", buildBlob(t, "events_0", 0, 10, 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForOnline("events_OFFLINE", 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	leader, _ := c.Leader()
	if err := leader.DeleteTable("events", table.Offline); err != nil {
		t.Fatal(err)
	}
	// Object store cleaned up.
	deadline := time.Now().Add(5 * time.Second)
	for {
		keys, _ := c.Objects.List("segments/events_OFFLINE/")
		if len(keys) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blobs remain: %v", keys)
		}
		time.Sleep(10 * time.Millisecond)
	}
	tables, _ := leader.Tables()
	if len(tables) != 0 {
		t.Fatalf("tables = %v", tables)
	}
}

func TestStarTreeThroughCluster(t *testing.T) {
	c, err := NewLocal(Options{Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	cfg := offlineConfig(t, 1)
	cfg.StarTree = &startree.Config{
		DimensionSplitOrder: []string{"country", "day"},
		Metrics:             []string{"clicks"},
		MaxLeafRecords:      10,
	}
	if err := c.AddTable(cfg); err != nil {
		t.Fatal(err)
	}
	// Build the segment with a star tree attached (as a batch pipeline
	// honouring the table config would).
	b, _ := segment.NewBuilder("events", "events_0", eventsSchema(t), segment.IndexConfig{})
	for i := 0; i < 500; i++ {
		_ = b.Add(segment.Row{[]string{"us", "de", "fr"}[i%3], int64(i % 20), int64(i), int64(100 + i%5)})
	}
	seg, _ := b.Build()
	tree, err := startree.Build(seg, *cfg.StarTree)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := tree.Marshal()
	seg.SetStarTreeData(data)
	blob, _ := seg.Marshal()
	if err := c.UploadSegment("events_OFFLINE", blob); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForOnline("events_OFFLINE", 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(context.Background(), "SELECT sum(clicks) FROM events WHERE country = 'us' GROUP BY day TOP 10")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StarTreeSegments != 1 {
		t.Fatalf("star tree not used through cluster: %+v", res.Stats)
	}
	want := map[int64]float64{}
	for i := 0; i < 500; i++ {
		if i%3 == 0 {
			want[int64(100+i%5)] += float64(i)
		}
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, row := range res.Rows {
		if row[1].(float64) != want[row[0].(int64)] {
			t.Fatalf("group %v = %v, want %v", row[0], row[1], want[row[0].(int64)])
		}
	}
}

func TestTenancyThrottlingThroughServer(t *testing.T) {
	c, err := NewLocal(Options{
		Servers: 1,
		ServerTemplate: server.Config{
			TenantTokens: 0.000001, // effectively empty after first query
			TenantRefill: 0.0000001,
		},
		// The throttle only fires when the repeated query reaches the
		// server; a broker cache hit would answer it without spending
		// tenant tokens.
		BrokerTemplate: broker.Config{DisableResultCache: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.AddTable(offlineConfig(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.UploadSegment("events_OFFLINE", buildBlob(t, "events_0", 0, 1000, 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForOnline("events_OFFLINE", 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// First query drains the bucket.
	if _, err := c.Broker().Execute(context.Background(), "SELECT sum(clicks) FROM events WHERE memberId = 3", "heavy"); err != nil {
		t.Fatal(err)
	}
	// Second query for the same tenant must hit the throttle (times out).
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	res, err := c.Broker().Execute(ctx, "SELECT sum(clicks) FROM events WHERE memberId = 3", "heavy")
	if err == nil && !res.Partial {
		t.Fatal("heavy tenant not throttled")
	}
	// A different tenant is unaffected.
	res, err = c.Broker().Execute(context.Background(), "SELECT count(*) FROM events", "light")
	if err != nil || res.Partial {
		t.Fatalf("light tenant throttled: %v %v", err, res)
	}
}

func TestLargeClusterRoutingThroughCluster(t *testing.T) {
	c, err := NewLocal(Options{
		Servers: 6,
		BrokerTemplate: broker.Config{
			Strategy:      broker.StrategyLargeCluster,
			TargetServers: 2,
			Seed:          7,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.AddTable(offlineConfig(t, 3)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := c.UploadSegment("events_OFFLINE", buildBlob(t, fmt.Sprintf("events_%d", i), i*10, 10, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitForOnline("events_OFFLINE", 12, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(context.Background(), "SELECT count(*) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 120 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	// The large-cluster strategy touches far fewer servers than the
	// fleet.
	if res.ServersQueried > 4 {
		t.Fatalf("servers queried = %d, want <= 4", res.ServersQueried)
	}
}

package broker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pinot/internal/helix"
	"pinot/internal/metrics"
	"pinot/internal/pql"
	"pinot/internal/query"
	"pinot/internal/segment"
	"pinot/internal/table"
	"pinot/internal/transport"
	"pinot/internal/zkmeta"
)

// fakeServer is a scriptable transport.ServerClient.
type fakeServer struct {
	mu       sync.Mutex
	calls    []*transport.QueryRequest
	fail     bool
	respond  func(req *transport.QueryRequest) *query.Intermediate
	latency  time.Duration
	instance string
	// intercept, when set and returning handled=true, replaces the normal
	// scripted behavior for that call.
	intercept func(ctx context.Context, req *transport.QueryRequest) (*transport.QueryResponse, error, bool)
}

func (f *fakeServer) Execute(ctx context.Context, req *transport.QueryRequest) (*transport.QueryResponse, error) {
	f.mu.Lock()
	f.calls = append(f.calls, req)
	ic := f.intercept
	f.mu.Unlock()
	if ic != nil {
		if resp, err, handled := ic(ctx, req); handled {
			return resp, err
		}
	}
	if f.latency > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(f.latency):
		}
	}
	if f.fail {
		return nil, errors.New("injected server failure")
	}
	return &transport.QueryResponse{Result: f.respond(req)}, nil
}

func (f *fakeServer) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

// testEnv assembles a broker over a hand-built metadata store.
type testEnv struct {
	store   *zkmeta.Store
	sess    *zkmeta.Session
	admin   *helix.Admin
	servers map[string]*fakeServer
	broker  *Broker
}

func newTestEnv(t *testing.T, cfg Config) *testEnv {
	t.Helper()
	env := &testEnv{
		store:   zkmeta.NewStore(),
		servers: map[string]*fakeServer{},
	}
	env.sess = env.store.NewSession()
	env.admin = helix.NewAdmin(env.sess, "test")
	if err := env.admin.CreateCluster(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{
		helix.PropertyStorePath("test", "CONFIGS"),
		helix.PropertyStorePath("test", "CONFIGS", "TABLE"),
		helix.PropertyStorePath("test", "SEGMENTS"),
	} {
		if err := env.sess.Create(p, nil); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Instance = "broker1"
	env.broker = env.newBroker(t, cfg, env.store)
	return env
}

// newBroker starts a broker over env's fake servers whose metadata sessions
// come from ep.
func (env *testEnv) newBroker(t *testing.T, cfg Config, ep zkmeta.Endpoint) *Broker {
	t.Helper()
	cfg.Cluster = "test"
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	b := New(cfg, ep, transport.RegistryFunc(func(instance string) (transport.ServerClient, bool) {
		s, ok := env.servers[instance]
		return s, ok
	}))
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Stop)
	return b
}

func (env *testEnv) schema(t *testing.T) *segment.Schema {
	t.Helper()
	s, err := segment.NewSchema("ev", []segment.FieldSpec{
		{Name: "d", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "m", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// timeSchema is schema plus a time column t, on which a hybrid table splits.
func (env *testEnv) timeSchema(t *testing.T) *segment.Schema {
	t.Helper()
	s, err := segment.NewSchema("ev", append(env.schema(t).Fields,
		segment.FieldSpec{Name: "t", Type: segment.TypeLong, Kind: segment.Time, SingleValue: true}))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// addTable registers a table config, external view and fake servers. Each
// server answers COUNT-style queries with `docsPerSegment` per routed
// segment.
func (env *testEnv) addTable(t *testing.T, resource string, segsPerServer map[string][]string, docsPerSegment int64) {
	t.Helper()
	env.addTableWithSchema(t, resource, env.schema(t), segsPerServer, docsPerSegment)
}

func (env *testEnv) addTableWithSchema(t *testing.T, resource string, schema *segment.Schema, segsPerServer map[string][]string, docsPerSegment int64) {
	t.Helper()
	// The broker hears of the writes on its watch goroutines: one event per
	// write to a znode it watches, one more if the view is new. Wait for every
	// invalidation, so none lands after the test's first query has cached.
	p := helix.PropertyStorePath("test", "CONFIGS", "TABLE", resource)
	evPath := helix.ExternalViewPath("test", resource)
	env.broker.mu.Lock()
	_, configWatched := env.broker.watching[p]
	_, viewWatched := env.broker.watching[evPath]
	epoch := env.broker.routingEpoch
	env.broker.mu.Unlock()
	events := 0
	name, typ, err := table.ParseResource(resource)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &table.Config{Name: name, Type: typ, Schema: schema, Replicas: 1}
	if typ == table.Realtime {
		cfg.StreamTopic = "s"
		cfg.FlushThresholdRows = 1
	}
	data, _ := json.Marshal(cfg)
	if err := env.sess.Create(p, data); err == nil {
		if configWatched {
			events++
		}
	} else if err != zkmeta.ErrNodeExists {
		t.Fatal(err)
	}
	ev := &helix.ExternalView{Resource: resource, Partitions: map[string]map[string]string{}}
	for inst, segs := range segsPerServer {
		if _, ok := env.servers[inst]; !ok {
			env.servers[inst] = &fakeServer{
				instance: inst,
				respond: func(req *transport.QueryRequest) *query.Intermediate {
					out := query.NewAggIntermediate([]pql.Expression{{IsAgg: true, Func: pql.Count, Column: "*"}})
					out.Groups.SetState(0, 0, query.AggState{Count: docsPerSegment * int64(len(req.Segments))})
					return out
				},
			}
		}
		for _, seg := range segs {
			if ev.Partitions[seg] == nil {
				ev.Partitions[seg] = map[string]string{}
			}
			ev.Partitions[seg][inst] = helix.StateOnline
		}
	}
	evData, _ := json.Marshal(ev)
	if viewWatched {
		events++
	}
	if err := env.sess.Create(evPath, evData); err == zkmeta.ErrNodeExists {
		_, _ = env.sess.Set(evPath, evData, -1)
	} else if err != nil {
		t.Fatal(err)
	} else {
		events++
	}
	env.awaitInvalidations(t, epoch+events)
}

// addSegmentMeta writes a segment's metadata record.
func (env *testEnv) addSegmentMeta(t *testing.T, m *table.SegmentMeta) {
	t.Helper()
	base := helix.PropertyStorePath("test", "SEGMENTS", m.Resource)
	if err := env.sess.Create(base, nil); err != nil && err != zkmeta.ErrNodeExists {
		t.Fatal(err)
	}
	if err := env.sess.Create(base+"/"+m.Name, m.Marshal()); err != nil {
		t.Fatal(err)
	}
}

// awaitInvalidations waits until the broker's routing epoch reaches epoch.
func (env *testEnv) awaitInvalidations(t *testing.T, epoch int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		env.broker.mu.Lock()
		got := env.broker.routingEpoch
		env.broker.mu.Unlock()
		if got >= epoch {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("routing epoch %d, want %d: a watch event was never handled", got, epoch)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBrokerScatterGatherMergesCounts(t *testing.T) {
	env := newTestEnv(t, Config{})
	env.addTable(t, "ev_OFFLINE", map[string][]string{
		"s1": {"seg0", "seg1"},
		"s2": {"seg2"},
	}, 10)
	res, err := env.broker.Execute(context.Background(), "SELECT count(*) FROM ev", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("partial: %v", res.Exceptions)
	}
	if got := res.Rows[0][0].(int64); got != 30 {
		t.Fatalf("count = %d, want 30", got)
	}
	if res.ServersQueried != 2 {
		t.Fatalf("servers = %d", res.ServersQueried)
	}
}

func TestBrokerUnknownTable(t *testing.T) {
	env := newTestEnv(t, Config{})
	if _, err := env.broker.Execute(context.Background(), "SELECT count(*) FROM nosuch", ""); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := env.broker.Execute(context.Background(), "NOT PQL AT ALL", ""); err == nil {
		t.Fatal("garbage PQL accepted")
	}
}

func TestBrokerServerFailureYieldsPartial(t *testing.T) {
	env := newTestEnv(t, Config{})
	env.addTable(t, "ev_OFFLINE", map[string][]string{
		"s1": {"seg0"},
		"s2": {"seg1"},
	}, 10)
	env.servers["s2"].fail = true
	res, err := env.broker.Execute(context.Background(), "SELECT count(*) FROM ev", "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || len(res.Exceptions) == 0 {
		t.Fatalf("expected partial result, got %+v", res)
	}
	if got := res.Rows[0][0].(int64); got != 10 {
		t.Fatalf("partial count = %d, want 10", got)
	}
}

func TestBrokerAllServersFailingStillPartial(t *testing.T) {
	env := newTestEnv(t, Config{})
	env.addTable(t, "ev_OFFLINE", map[string][]string{"s1": {"seg0"}}, 10)
	env.servers["s1"].fail = true
	res, err := env.broker.Execute(context.Background(), "SELECT count(*) FROM ev", "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("expected partial result")
	}
	if got := res.Rows[0][0].(int64); got != 0 {
		t.Fatalf("count = %d, want 0", got)
	}
}

func TestBrokerMissingClientIsException(t *testing.T) {
	env := newTestEnv(t, Config{})
	env.addTable(t, "ev_OFFLINE", map[string][]string{"s1": {"seg0"}, "ghost": {"seg1"}}, 10)
	delete(env.servers, "ghost") // registered in the view but unreachable
	res, err := env.broker.Execute(context.Background(), "SELECT count(*) FROM ev", "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("expected partial result")
	}
}

func TestBrokerTimeoutProducesPartial(t *testing.T) {
	env := newTestEnv(t, Config{QueryTimeout: 50 * time.Millisecond})
	env.addTable(t, "ev_OFFLINE", map[string][]string{"s1": {"seg0"}, "s2": {"seg1"}}, 10)
	env.servers["s2"].latency = time.Second
	res, err := env.broker.Execute(context.Background(), "SELECT count(*) FROM ev", "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("expected partial result after timeout")
	}
	if got := res.Rows[0][0].(int64); got != 10 {
		t.Fatalf("count = %d, want 10 (fast server only)", got)
	}
}

func TestBrokerHybridDispatchesBothResources(t *testing.T) {
	env := newTestEnv(t, Config{})
	env.addTable(t, "ev_OFFLINE", map[string][]string{"s1": {"off0"}}, 10)
	env.addTable(t, "ev_REALTIME", map[string][]string{"s2": {"ev__0__0"}}, 7)
	// Offline segment metadata provides the time boundary.
	env.addSegmentMeta(t, &table.SegmentMeta{Name: "off0", Resource: "ev_OFFLINE", Status: table.StatusDone, MaxTime: 100, Partition: -1})
	res, err := env.broker.Execute(context.Background(), "SELECT count(*) FROM ev", "")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(int64); got != 17 {
		t.Fatalf("hybrid count = %d, want 17", got)
	}
	// Each side saw the boundary-rewritten query (the schema has no time
	// column in this fixture, so the broker skips the rewrite — verify
	// both resources were still contacted).
	if env.servers["s1"].callCount() != 1 || env.servers["s2"].callCount() != 1 {
		t.Fatalf("calls = %d/%d", env.servers["s1"].callCount(), env.servers["s2"].callCount())
	}
}

func TestBrokerRoutingRefreshOnViewChange(t *testing.T) {
	env := newTestEnv(t, Config{})
	env.addTable(t, "ev_OFFLINE", map[string][]string{"s1": {"seg0"}}, 10)
	if res, err := env.broker.Execute(context.Background(), "SELECT count(*) FROM ev", ""); err != nil || res.Rows[0][0].(int64) != 10 {
		t.Fatalf("first query: %v %v", res, err)
	}
	// The view changes: segment moves to s2.
	env.addTable(t, "ev_OFFLINE", map[string][]string{"s2": {"seg0", "seg1"}}, 10)
	ev := &helix.ExternalView{Resource: "ev_OFFLINE", Partitions: map[string]map[string]string{
		"seg0": {"s2": helix.StateOnline},
		"seg1": {"s2": helix.StateOnline},
	}}
	data, _ := json.Marshal(ev)
	if _, err := env.sess.Set(helix.ExternalViewPath("test", "ev_OFFLINE"), data, -1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := env.broker.Execute(context.Background(), "SELECT count(*) FROM ev", "")
		if err == nil && !res.Partial && res.Rows[0][0].(int64) == 20 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("routing never refreshed: %v %v", res, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPartitionFilterValue(t *testing.T) {
	q, _ := pql.Parse("SELECT count(*) FROM t WHERE a = 1 AND memberId = 42 AND b = 2")
	if v, ok := partitionFilterValue(q.Filter, "memberId"); !ok || v.(int64) != 42 {
		t.Fatalf("value = %v ok=%v", v, ok)
	}
	q2, _ := pql.Parse("SELECT count(*) FROM t WHERE memberId > 42")
	if _, ok := partitionFilterValue(q2.Filter, "memberId"); ok {
		t.Fatal("range predicate treated as partition filter")
	}
	q3, _ := pql.Parse("SELECT count(*) FROM t WHERE memberId = 1 OR memberId = 2")
	if _, ok := partitionFilterValue(q3.Filter, "memberId"); ok {
		t.Fatal("OR predicate treated as partition filter")
	}
	if _, ok := partitionFilterValue(nil, "memberId"); ok {
		t.Fatal("nil filter matched")
	}
}

func TestBrokerEmptyResourceNoSegments(t *testing.T) {
	env := newTestEnv(t, Config{})
	// Table exists but has no queryable segments yet.
	cfg := &table.Config{Name: "ev", Type: table.Offline, Schema: env.schema(t), Replicas: 1}
	data, _ := json.Marshal(cfg)
	if err := env.sess.Create(helix.PropertyStorePath("test", "CONFIGS", "TABLE", "ev_OFFLINE"), data); err != nil {
		t.Fatal(err)
	}
	_, err := env.broker.Execute(context.Background(), "SELECT count(*) FROM ev", "")
	if err == nil {
		t.Skip("empty table produced a zero result, also acceptable")
	}
	if !strings.Contains(err.Error(), "no servers") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestBrokerSelectionHeaderSurvivesAnAllPrunedServer: the first server to
// respond is the accumulator, so when every segment of it was pruned, what it
// answers must have the columns another server's rows have: '*' expanded over
// the schema, the hidden ORDER BY column counted. Each fake server here runs
// the engine over a segment of its own; s1 sorts first and holds no match.
func TestBrokerSelectionHeaderSurvivesAnAllPrunedServer(t *testing.T) {
	env := newTestEnv(t, Config{})
	env.addTable(t, "ev_OFFLINE", map[string][]string{"s1": {"seg0"}, "s2": {"seg1"}}, 10)
	schema := env.schema(t)
	for inst, rows := range map[string][]segment.Row{
		"s1": {{"x", int64(1)}, {"y", int64(2)}},
		"s2": {{"a", int64(500)}, {"b", int64(300)}},
	} {
		b, err := segment.NewBuilder("ev", inst, schema, segment.IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := b.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		seg, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		env.servers[inst].respond = func(req *transport.QueryRequest) *query.Intermediate {
			res, _, err := (&query.Engine{}).Execute(context.Background(), req.Query, []query.IndexedSegment{{Seg: seg}}, schema)
			if err != nil {
				t.Error(err)
			}
			return res
		}
	}
	for _, c := range []struct{ pql, columns, rows string }{
		{"SELECT * FROM ev WHERE m > 100 LIMIT 10", "[d m]", "[[a 500] [b 300]]"},
		{"SELECT d FROM ev WHERE m > 100 ORDER BY m LIMIT 10", "[d]", "[[b] [a]]"},
	} {
		res, err := env.broker.Execute(context.Background(), c.pql, "")
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(res.Columns); got != c.columns || fmt.Sprint(res.Rows) != c.rows || res.Partial {
			t.Errorf("%s: columns %s rows %v partial %v, want %s %s", c.pql, got, res.Rows, res.Partial, c.columns, c.rows)
		}
		if res.Stats.SegmentsPrunedByValue != 1 {
			t.Errorf("%s: s1's segment was not pruned: %+v", c.pql, res.Stats)
		}
	}
}

// armFirstCall installs fn as a shared one-shot intercept on the given
// replicas: exactly the first broker→server call overall is handled by fn —
// whichever replica the routing table happened to pick as primary — and
// every later call behaves normally. This keeps the tests independent of
// the (randomized, watch-refreshed) routing table's replica choice.
func armFirstCall(env *testEnv, fn func(ctx context.Context, req *transport.QueryRequest) (*transport.QueryResponse, error), servers ...string) {
	var used atomic.Bool
	ic := func(ctx context.Context, req *transport.QueryRequest) (*transport.QueryResponse, error, bool) {
		if used.CompareAndSwap(false, true) {
			resp, err := fn(ctx, req)
			return resp, err, true
		}
		return nil, nil, false
	}
	for _, s := range servers {
		env.servers[s].intercept = ic
	}
}

// other returns the replica that is not `primary` among s1/s2.
func other(primary string) string {
	if primary == "s1" {
		return "s2"
	}
	return "s1"
}

func TestBrokerRetryRecoversOnAlternateReplica(t *testing.T) {
	env := newTestEnv(t, Config{})
	env.addTable(t, "ev_OFFLINE", map[string][]string{
		"s1": {"seg0"},
		"s2": {"seg0"}, // second replica of the same segment
	}, 10)
	// The primary — whichever replica is routed to first — fails once.
	armFirstCall(env, func(ctx context.Context, req *transport.QueryRequest) (*transport.QueryResponse, error) {
		return nil, errors.New("injected server failure")
	}, "s1", "s2")

	res, err := env.broker.Execute(context.Background(), "SELECT count(*) FROM ev", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("retry should mask the failure: %+v", res.Result)
	}
	if got := res.Rows[0][0].(int64); got != 10 {
		t.Fatalf("count = %d, want 10", got)
	}
	if res.ServersQueried != 1 || res.ServersResponded != 1 {
		t.Fatalf("queried/responded = %d/%d, want 1/1", res.ServersQueried, res.ServersResponded)
	}
	if len(res.ServerExceptions) != 1 || !res.ServerExceptions[0].Recovered {
		t.Fatalf("server exceptions = %+v", res.ServerExceptions)
	}
	primary := res.ServerExceptions[0].Server
	if env.servers[primary].callCount() != 1 || env.servers[other(primary)].callCount() != 1 {
		t.Fatalf("calls = %d/%d, want one failed primary call and one retry",
			env.servers[primary].callCount(), env.servers[other(primary)].callCount())
	}
}

func TestBrokerBothReplicasFailingIsExplicitlyPartial(t *testing.T) {
	env := newTestEnv(t, Config{})
	env.addTable(t, "ev_OFFLINE", map[string][]string{
		"s1": {"seg0"},
		"s2": {"seg0"},
	}, 10)
	env.servers["s1"].fail = true
	env.servers["s2"].fail = true

	res, err := env.broker.Execute(context.Background(), "SELECT count(*) FROM ev", "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("expected explicitly partial result")
	}
	if res.ServersResponded >= res.ServersQueried {
		t.Fatalf("queried/responded = %d/%d, want responded < queried", res.ServersQueried, res.ServersResponded)
	}
	if len(res.Exceptions) == 0 {
		t.Fatal("expected client-visible exceptions")
	}
	for _, e := range res.ServerExceptions {
		if e.Recovered {
			t.Fatalf("no failure was recovered: %+v", e)
		}
	}
	// Both replicas were actually attempted.
	if env.servers["s1"].callCount() != 1 || env.servers["s2"].callCount() != 1 {
		t.Fatalf("calls = %d/%d", env.servers["s1"].callCount(), env.servers["s2"].callCount())
	}
}

func TestBrokerPerServerDeadlineLeavesRetryBudget(t *testing.T) {
	// Each server attempt gets half the query timeout: 200 ms here.
	env := newTestEnv(t, Config{QueryTimeout: 400 * time.Millisecond})
	env.addTable(t, "ev_OFFLINE", map[string][]string{
		"s1": {"seg0"},
		"s2": {"seg0"},
	}, 10)
	// The primary hangs far beyond its per-server deadline; the carved
	// budget must leave room to retry the other replica.
	armFirstCall(env, func(ctx context.Context, req *transport.QueryRequest) (*transport.QueryResponse, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Minute):
			return nil, errors.New("latency fault outlived the test")
		}
	}, "s1", "s2")

	res, err := env.broker.Execute(context.Background(), "SELECT count(*) FROM ev", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("hung primary should be recovered by retry: %+v", res.Result)
	}
	if got := res.Rows[0][0].(int64); got != 10 {
		t.Fatalf("count = %d, want 10", got)
	}
	if len(res.ServerExceptions) != 1 || !res.ServerExceptions[0].Recovered {
		t.Fatalf("server exceptions = %+v", res.ServerExceptions)
	}
}

func TestBrokerHedgedRequestBeatsStraggler(t *testing.T) {
	// The query budget is generous, so the straggler holds its attempt for
	// 2.5 s: a prompt full result with no retry can only be the hedge's.
	env := newTestEnv(t, Config{
		QueryTimeout: 5 * time.Second,
		HedgeDelay:   5 * time.Millisecond,
		Metrics:      metrics.NewRegistry(),
	})
	env.addTable(t, "ev_OFFLINE", map[string][]string{
		"s1": {"seg0"},
		"s2": {"seg0"},
	}, 10)
	armFirstCall(env, func(ctx context.Context, req *transport.QueryRequest) (*transport.QueryResponse, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(30 * time.Second):
			return nil, errors.New("straggler outlived the test")
		}
	}, "s1", "s2")

	res, err := env.broker.Execute(context.Background(), "SELECT count(*) FROM ev", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("hedge should mask the straggler: %+v", res.Result)
	}
	if got := res.Rows[0][0].(int64); got != 10 {
		t.Fatalf("count = %d, want 10", got)
	}
	if got := env.servers["s1"].callCount() + env.servers["s2"].callCount(); got != 2 {
		t.Fatalf("total calls = %d, want 2 (straggler + hedge)", got)
	}
	if res.ServersQueried != 1 || res.ServersResponded != 1 {
		t.Fatalf("queried/responded = %d/%d", res.ServersQueried, res.ServersResponded)
	}
	if got := env.broker.Metrics().Value("pinot_broker_retries_total"); got != 0 {
		t.Fatalf("pinot_broker_retries_total = %d, want 0 (the hedge answered)", got)
	}
}

func TestBrokerMalformedResponseDegradesToRetry(t *testing.T) {
	env := newTestEnv(t, Config{})
	env.addTable(t, "ev_OFFLINE", map[string][]string{
		"s1": {"seg0"},
		"s2": {"seg0"},
	}, 10)
	// The primary answers with a result of the wrong shape (a selection
	// for an aggregation query) — a corrupted payload must be treated as
	// a server failure, not merged.
	armFirstCall(env, func(ctx context.Context, req *transport.QueryRequest) (*transport.QueryResponse, error) {
		return &transport.QueryResponse{
			Result: &query.Intermediate{Kind: query.KindSelection, SelectCols: []string{"garbage"}},
		}, nil
	}, "s1", "s2")

	res, err := env.broker.Execute(context.Background(), "SELECT count(*) FROM ev", "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("corrupt response should be recovered via retry: %+v", res.Result)
	}
	if got := res.Rows[0][0].(int64); got != 10 {
		t.Fatalf("count = %d, want 10", got)
	}
	if len(res.ServerExceptions) != 1 || !res.ServerExceptions[0].Recovered {
		t.Fatalf("server exceptions = %+v", res.ServerExceptions)
	}
}

// racingEndpoint mints sessions whose first read of path is followed, before
// it returns to the broker, by the write in after: a metadata update landing
// while the broker is still building state from the value it just read.
type racingEndpoint struct {
	zkmeta.Endpoint
	path  string
	after func()
	once  sync.Once
}

type racingClient struct {
	zkmeta.Client
	ep *racingEndpoint
}

func (e *racingEndpoint) NewClient() zkmeta.Client {
	return racingClient{Client: e.Endpoint.NewClient(), ep: e}
}

func (c racingClient) Get(path string) ([]byte, int, error) {
	data, ver, err := c.Client.Get(path)
	if path == c.ep.path {
		c.ep.once.Do(c.ep.after)
	}
	return data, ver, err
}

// TestBrokerViewChangeDuringRoutingBuildIsNotLost: an external-view update
// that lands between the broker's read of the view and the moment it keeps
// the routing state built from it must still refresh routing. Watching only
// after the read lost that update for good — routing, and every result cached
// under its version, stayed on the old view until some later change (the
// multi-process e2e hung on exactly this when segments came online while the
// first query was being routed).
func TestBrokerViewChangeDuringRoutingBuildIsNotLost(t *testing.T) {
	env := newTestEnv(t, Config{})
	env.addTable(t, "ev_OFFLINE", map[string][]string{"s1": {"seg0"}}, 10)
	ep := &racingEndpoint{Endpoint: env.store, path: helix.ExternalViewPath("test", "ev_OFFLINE"), after: func() {
		env.addTable(t, "ev_OFFLINE", map[string][]string{"s1": {"seg0", "seg1"}}, 10)
	}}
	b := env.newBroker(t, Config{Instance: "broker2"}, ep)
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := b.Execute(context.Background(), "SELECT count(*) FROM ev", "")
		if err == nil && !res.Partial && res.Rows[0][0].(int64) == 20 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("routing stuck on the view read before the update: %v %v", res, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// lastPQL renders the query of the latest call a fake server received.
func (f *fakeServer) lastPQL(t *testing.T) string {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.calls) == 0 {
		t.Fatalf("%s was never called", f.instance)
	}
	return f.calls[len(f.calls)-1].Query.String()
}

// hybridEnv builds a hybrid table ev: the offline segment off0 (DONE, max
// time 100) on s1 and the realtime segment ev__0__0 on s2, whose rows may
// reach back past 100. Extra metadata records are written before any query.
func hybridEnv(t *testing.T, cfg Config, schema func(*testEnv, *testing.T) *segment.Schema, metas ...*table.SegmentMeta) *testEnv {
	t.Helper()
	env := newTestEnv(t, cfg)
	env.addTableWithSchema(t, "ev_OFFLINE", schema(env, t), map[string][]string{"s1": {"off0"}}, 10)
	env.addTableWithSchema(t, "ev_REALTIME", schema(env, t), map[string][]string{"s2": {"ev__0__0"}}, 7)
	metas = append(metas, &table.SegmentMeta{Name: "off0", Resource: "ev_OFFLINE", Status: table.StatusDone, MaxTime: 100, Partition: -1})
	for _, m := range metas {
		env.addSegmentMeta(t, m)
	}
	return env
}

// TestBrokerHybridHalvesScatterInOneWave: the offline and realtime halves of
// a hybrid query go out in one fan-out, so the query waits for the slower
// half, not for the two one after the other (60 ms here).
func TestBrokerHybridHalvesScatterInOneWave(t *testing.T) {
	env := hybridEnv(t, Config{DisableResultCache: true}, (*testEnv).timeSchema)
	if _, err := env.broker.Execute(context.Background(), "SELECT count(*) FROM ev", ""); err != nil {
		t.Fatal(err)
	}
	env.servers["s1"].latency = 30 * time.Millisecond
	env.servers["s2"].latency = 30 * time.Millisecond
	fastest := time.Hour
	for i := 0; i < 5; i++ {
		start := time.Now()
		res, err := env.broker.Execute(context.Background(), "SELECT count(*) FROM ev", "")
		if err != nil || res.Partial || res.Rows[0][0].(int64) != 17 {
			t.Fatalf("hybrid query: %+v, err %v", res, err)
		}
		fastest = min(fastest, time.Since(start))
	}
	t.Logf("fastest of 5 hybrid queries: %v", fastest)
	if fastest >= 45*time.Millisecond {
		t.Fatalf("a hybrid query over two 30 ms servers took %v at best, want < 45ms", fastest)
	}
}

// countingEndpoint mints sessions that count their metadata reads.
type countingEndpoint struct {
	zkmeta.Endpoint
	reads atomic.Int64
}

type countingClient struct {
	zkmeta.Client
	ep *countingEndpoint
}

func (e *countingEndpoint) NewClient() zkmeta.Client {
	return countingClient{Client: e.Endpoint.NewClient(), ep: e}
}

func (c countingClient) Get(path string) ([]byte, int, error) {
	c.ep.reads.Add(1)
	return c.Client.Get(path)
}

func (c countingClient) Children(path string) ([]string, error) {
	c.ep.reads.Add(1)
	return c.Client.Children(path)
}

// TestBrokerWarmQueriesReadNoMetadata: once a table's snapshots are built, a
// query on an offline-only, a realtime-only or a hybrid table reads nothing
// from the metadata store. A query for a table that does not exist still
// fails, and leaves nothing watched behind it.
func TestBrokerWarmQueriesReadNoMetadata(t *testing.T) {
	env := hybridEnv(t, Config{}, (*testEnv).timeSchema)
	env.addTable(t, "o_OFFLINE", map[string][]string{"s1": {"o0"}}, 10)
	env.addTable(t, "r_REALTIME", map[string][]string{"s2": {"r__0__0"}}, 7)
	ep := &countingEndpoint{Endpoint: env.store}
	b := env.newBroker(t, Config{Instance: "broker2"}, ep)
	queryAll := func() {
		t.Helper()
		for _, name := range []string{"o", "r", "ev"} {
			if res, err := b.Execute(context.Background(), "SELECT count(*) FROM "+name, ""); err != nil || res.Partial {
				t.Fatalf("%s: %+v, err %v", name, res, err)
			}
		}
	}
	queryAll()
	ep.reads.Store(0)
	queryAll()
	if n := ep.reads.Load(); n != 0 {
		t.Fatalf("warm queries made %d metadata reads, want 0", n)
	}
	b.mu.Lock()
	watched := len(b.watching)
	b.mu.Unlock()
	if _, err := b.Execute(context.Background(), "SELECT count(*) FROM nosuch", ""); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("unknown table: err %v", err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.watching) != watched {
		t.Fatalf("an unknown table grew the watch set from %d to %d", watched, len(b.watching))
	}
}

// TestBrokerBoundaryIgnoresSegmentsNotYetOnline: a DONE offline segment the
// offline half cannot route to yet does not move the time boundary. Moving it
// would take the rows between the old and the new boundary from the realtime
// half before any offline server serves them.
func TestBrokerBoundaryIgnoresSegmentsNotYetOnline(t *testing.T) {
	env := hybridEnv(t, Config{}, (*testEnv).timeSchema,
		&table.SegmentMeta{Name: "off1", Resource: "ev_OFFLINE", Status: table.StatusDone, MaxTime: 200, Partition: -1})
	if _, err := env.broker.Execute(context.Background(), "SELECT count(*) FROM ev", ""); err != nil {
		t.Fatal(err)
	}
	if got := env.servers["s1"].lastPQL(t); !strings.HasSuffix(got, "WHERE t < 100") {
		t.Fatalf("offline half got %q, want the boundary of the routed segment, t < 100", got)
	}
	if got := env.servers["s2"].lastPQL(t); !strings.HasSuffix(got, "WHERE t >= 100") {
		t.Fatalf("realtime half got %q, want t >= 100", got)
	}
}

// TestBrokerExpiredSessionKeepsTheBoundary: a broker that can no longer read
// the metadata store answers a hybrid query from its snapshots with the same
// boundary rewrite. Reading the boundary per query turned the store error
// into "no boundary", and both halves counted the rows they share.
func TestBrokerExpiredSessionKeepsTheBoundary(t *testing.T) {
	env := hybridEnv(t, Config{DisableResultCache: true}, (*testEnv).timeSchema)
	if _, err := env.broker.Execute(context.Background(), "SELECT count(*) FROM ev", ""); err != nil {
		t.Fatal(err)
	}
	before := map[string]string{"s1": env.servers["s1"].lastPQL(t), "s2": env.servers["s2"].lastPQL(t)}
	env.broker.sess.Expire()
	if _, err := env.broker.Execute(context.Background(), "SELECT count(*) FROM ev", ""); err != nil {
		t.Fatal(err)
	}
	for inst, want := range before {
		if !strings.Contains(want, " t ") {
			t.Fatalf("%s: %q is not boundary-rewritten", inst, want)
		}
		if got := env.servers[inst].lastPQL(t); got != want {
			t.Fatalf("%s after the session expired: %q, want %q", inst, got, want)
		}
	}
}

// TestBrokerConfigChangeDuringReadIsNotLost: a table config written between
// the broker's read of it and the moment it keeps what it built must reach
// the next query. Watching the config only after reading it lost that write
// until the next one, and the broker served the old schema: here, one with
// no time column to split the hybrid query on.
func TestBrokerConfigChangeDuringReadIsNotLost(t *testing.T) {
	env := hybridEnv(t, Config{}, (*testEnv).schema)
	path := helix.PropertyStorePath("test", "CONFIGS", "TABLE", "ev_OFFLINE")
	data, _ := json.Marshal(&table.Config{Name: "ev", Type: table.Offline, Schema: env.timeSchema(t), Replicas: 1})
	ep := &racingEndpoint{Endpoint: env.store, path: path, after: func() {
		if _, err := env.sess.Set(path, data, -1); err != nil {
			t.Error(err)
		}
	}}
	b := env.newBroker(t, Config{Instance: "broker2", DisableResultCache: true}, ep)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := b.Execute(context.Background(), "SELECT count(*) FROM ev", ""); err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(env.servers["s1"].lastPQL(t), "WHERE t < 100") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the config written during the read never took effect: offline half still gets %q", env.servers["s1"].lastPQL(t))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

package cluster

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"pinot/internal/chaos"
	"pinot/internal/metrics"
	"pinot/internal/pql"
	"pinot/internal/qctx"
	"pinot/internal/query"
	"pinot/internal/transport"
)

func countEvents(t *testing.T) *pql.Query {
	q, err := pql.Parse("SELECT count(*) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestServerEnforcesMinimumTimeout is the regression test for the server-side
// deadline rule: execution is bounded by the MINIMUM of the server's
// DefaultTimeout, the request's TimeoutMillis and the broker's wire budget —
// a large request timeout must never extend past the server default, and a
// small one must tighten it.
func TestServerEnforcesMinimumTimeout(t *testing.T) {
	run := func(t *testing.T, c *Cluster, req *transport.QueryRequest, wantWithin time.Duration) {
		t.Helper()
		s := c.Servers[0]
		s.InjectLatency(2 * time.Second) // a straggler far beyond every timeout
		defer s.InjectLatency(0)
		start := time.Now()
		_, err := s.ExecuteStream(context.Background(), req, func(int, *query.Intermediate) error { return nil })
		elapsed := time.Since(start)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want deadline exceeded", err)
		}
		if elapsed > wantWithin {
			t.Fatalf("server held the query for %v, want under %v", elapsed, wantWithin)
		}
	}
	// overTheWire sends req to the first server as a broker does, through
	// the cluster's registry and a context with no deadline: the budget on
	// the wire alone must end the call within the same bound.
	overTheWire := func(t *testing.T, c *Cluster, req *transport.QueryRequest, wantWithin time.Duration) {
		t.Helper()
		s := c.Servers[0]
		s.InjectLatency(2 * time.Second)
		defer s.InjectLatency(0)
		sc, ok := c.Chaos.ServerClient(s.Instance())
		if !ok {
			t.Fatalf("%s does not resolve", s.Instance())
		}
		start := time.Now()
		_, err := sc.Execute(context.Background(), req)
		elapsed := time.Since(start)
		if err == nil || !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
			t.Fatalf("err = %v, want the server's deadline exceeded", err)
		}
		if elapsed > wantWithin {
			t.Fatalf("server held the query for %v, want under %v", elapsed, wantWithin)
		}
	}

	t.Run("request tightens default", func(t *testing.T) {
		c, err := NewLocal(Options{Servers: 1, BrokerTemplate: chaosBrokerConfig()})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown()
		loadOffline(t, c, 1)
		// Server default is 10s; the request says 50ms; the request wins.
		run(t, c, &transport.QueryRequest{
			Resource: "events_OFFLINE", Query: countEvents(t), TimeoutMillis: 50,
		}, time.Second)
		// The broker's wire budget tightens the same way, called directly
		// and over the data plane.
		budgeted := &transport.QueryRequest{
			Resource: "events_OFFLINE", Query: countEvents(t), BudgetMillis: 50,
		}
		run(t, c, budgeted, time.Second)
		overTheWire(t, c, budgeted, time.Second)
	})

	t.Run("default caps an oversized request", func(t *testing.T) {
		tmpl := Options{Servers: 1, BrokerTemplate: chaosBrokerConfig()}
		tmpl.ServerTemplate.DefaultTimeout = 75 * time.Millisecond
		c, err := NewLocal(tmpl)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown()
		loadOffline(t, c, 1)
		// The request asks for 30s; the 75ms server default still applies.
		run(t, c, &transport.QueryRequest{
			Resource: "events_OFFLINE", Query: countEvents(t), TimeoutMillis: 30_000,
		}, time.Second)
	})
}

// TestChaosStragglerAbandonedAtDeadline models the worst-behaved server: one
// that keeps grinding while IGNORING cancellation. The broker must still
// answer within its query timeout (abandoning the in-flight call, not joining
// it) and its gather goroutines must drain back to baseline once the
// straggler finally gives up — no goroutines held hostage past the deadline.
func TestChaosStragglerAbandonedAtDeadline(t *testing.T) {
	const stall = 1 * time.Second
	cfg := chaosBrokerConfig()
	cfg.QueryTimeout = 150 * time.Millisecond
	c, err := NewLocal(Options{Servers: 2, BrokerTemplate: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	loadOffline(t, c, 2)

	// Warm up: the first query lazily creates per-server table managers and
	// their long-lived config-watch goroutines, which must be part of the
	// baseline.
	if _, err := c.Execute(context.Background(), "SELECT count(*) FROM events"); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	// Every replica stalls, so no retry or hedge can save the query: the only
	// correct outcome is a timely partial response.
	c.Chaos.SetFault("server1", chaos.Fault{StallFor: stall})
	c.Chaos.SetFault("server2", chaos.Fault{StallFor: stall})

	start := time.Now()
	res, err := c.Execute(context.Background(), "SELECT count(*), sum(clicks) FROM events")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("straggler must degrade the query, not fail it: %v", err)
	}
	if elapsed >= stall {
		t.Fatalf("broker waited %v — it joined the straggler instead of abandoning at the %v deadline", elapsed, cfg.QueryTimeout)
	}
	if !res.Partial || res.ServersResponded != 0 {
		t.Fatalf("want empty partial result, got partial=%v responded=%d", res.Partial, res.ServersResponded)
	}
	abandoned := false
	for _, e := range res.ServerExceptions {
		if strings.Contains(e.Error, "abandoned after query deadline") {
			abandoned = true
		}
	}
	if !abandoned {
		t.Fatalf("no abandonment recorded in server exceptions: %+v", res.ServerExceptions)
	}
	c.Chaos.Clear("server1")
	c.Chaos.Clear("server2")

	// Once the stragglers' sleeps expire their goroutines must exit: the
	// buffered result channels absorb the late sends.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines never drained: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterQueryTraceBudgetLedger asserts the client-visible lifecycle
// surface on the full distributed path: every response carries a query ID,
// a per-phase trace whose wall-clock ledger sums to no more than the measured
// elapsed time (queue/execute nest inside scatter and are excluded by
// WallSum), and per-query scan/memory accounting.
func TestClusterQueryTraceBudgetLedger(t *testing.T) {
	opts := Options{Servers: 2, BrokerTemplate: chaosBrokerConfig()}
	// Tenancy on, so the queue phase is exercised end to end.
	opts.ServerTemplate.TenantTokens = 100
	opts.ServerTemplate.TenantRefill = 100
	c, err := NewLocal(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	loadOffline(t, c, 2)

	start := time.Now()
	res, err := c.Execute(context.Background(), "SELECT count(*), sum(clicks) FROM events WHERE country != 'zz'")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	assertFullCount(t, res)
	if res.QueryID == "" {
		t.Fatal("missing query ID")
	}
	for _, p := range []qctx.Phase{
		qctx.PhaseParse, qctx.PhaseRoute, qctx.PhaseScatter,
		qctx.PhaseQueue, qctx.PhaseExecute, qctx.PhaseMerge, qctx.PhaseReduce,
	} {
		if res.Trace[p] <= 0 {
			t.Fatalf("trace missing phase %q: %v", p, res.Trace)
		}
	}
	if sum := res.Trace.WallSum(); sum > elapsed {
		t.Fatalf("trace ledger %v exceeds wall clock %v (trace %v)", sum, elapsed, res.Trace)
	}
	if res.Stats.NumDocsScanned != 400 || res.Stats.NumEntriesScanned == 0 {
		t.Fatalf("scan accounting wrong: %+v", res.Stats)
	}

	// Group-by memory accounting crosses the wire too.
	gres, err := c.Execute(context.Background(), "SELECT sum(clicks) FROM events GROUP BY country TOP 10")
	if err != nil {
		t.Fatal(err)
	}
	if gres.Stats.GroupStateBytes == 0 {
		t.Fatalf("group-by response missing state accounting: %+v", gres.Stats)
	}
	if gres.QueryID == res.QueryID {
		t.Fatal("query IDs must be per-query")
	}
}

// TestServerUsageMetricsAreTheResponseStats: the servers' scan counters and
// group-state histogram move by exactly the NumDocsScanned, NumEntriesScanned
// and GroupStateBytes of the broker's response — each server counts the
// Stats of the one result it sends, the same Stats the broker folds.
func TestServerUsageMetricsAreTheResponseStats(t *testing.T) {
	reg := metrics.NewRegistry()
	c, err := NewLocal(Options{Servers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	loadOffline(t, c, 1)

	groupStateSum := func() float64 {
		var sum float64
		for _, f := range reg.Snapshot() {
			if f.Name == "pinot_server_group_state_bytes" {
				for _, s := range f.Samples {
					sum += s.Sum
				}
			}
		}
		return sum
	}
	for _, q := range []string{
		"SELECT sum(clicks), count(*) FROM events WHERE clicks > 10 GROUP BY country TOP 3",
		"SELECT country, clicks FROM events WHERE clicks > 10 LIMIT 7",
	} {
		docs, entries, group := reg.Total("pinot_server_docs_scanned_total"), reg.Total("pinot_server_entries_scanned_total"), groupStateSum()
		res, err := c.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Partial || res.Stats.NumDocsScanned == 0 || strings.Contains(q, "GROUP BY") != (res.Stats.GroupStateBytes > 0) {
			t.Fatalf("%s: a partial or empty answer proves nothing: %+v", q, res.Stats)
		}
		if d := reg.Total("pinot_server_docs_scanned_total") - docs; d != res.Stats.NumDocsScanned {
			t.Errorf("%s: docs counter moved %d, the response scanned %d", q, d, res.Stats.NumDocsScanned)
		}
		if d := reg.Total("pinot_server_entries_scanned_total") - entries; d != res.Stats.NumEntriesScanned {
			t.Errorf("%s: entries counter moved %d, the response scanned %d", q, d, res.Stats.NumEntriesScanned)
		}
		if d := groupStateSum() - group; d != float64(res.Stats.GroupStateBytes) {
			t.Errorf("%s: group-state histogram sum moved %v, the response holds %d", q, d, res.Stats.GroupStateBytes)
		}
	}
}

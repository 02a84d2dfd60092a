package cluster

import (
	"context"
	"strings"
	"testing"
	"time"

	"pinot/internal/broker"
	"pinot/internal/chaos"
	"pinot/internal/helix"
)

// chaosBrokerConfig keeps routing deterministic.
func chaosBrokerConfig() broker.Config {
	// Chaos scenarios repeat one query until a fault is exercised on the
	// scatter path; the result cache would answer the repeats at the
	// broker and starve the fault of traffic.
	return broker.Config{Seed: 5, DisableResultCache: true}
}

// loadOffline uploads four 100-row segments and waits until every segment
// has all its replicas ONLINE — recovery paths need the alternate replicas
// actually available before faults are injected.
func loadOffline(t *testing.T, c *Cluster, replicas int) {
	t.Helper()
	if err := c.AddTable(offlineConfig(t, replicas)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		blob := buildBlob(t, "events_"+string(rune('0'+i)), i*100, 100, 100)
		if err := c.UploadSegment("events_OFFLINE", blob); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ev, err := c.ExternalView("events_OFFLINE")
		if err == nil {
			n := 0
			for seg := range ev.Partitions {
				if len(ev.InstancesFor(seg, helix.StateOnline)) >= replicas {
					n++
				}
			}
			if n >= 4 {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("events_OFFLINE never reached 4 segments with %d online replicas", replicas)
}

// victimFor runs one clean query and reports a server the broker's current
// routing table actually sends traffic to. The balanced routing table
// assigns each segment to a random replica, so which servers see traffic is
// not known a priori.
func victimFor(t *testing.T, c *Cluster, candidates ...string) string {
	t.Helper()
	// A zero Fault is a passthrough policy: it only turns on call counting.
	for _, s := range candidates {
		c.Chaos.SetFault(s, chaos.Fault{})
	}
	res, err := c.Execute(context.Background(), "SELECT count(*), sum(clicks) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	assertFullCount(t, res)
	for _, s := range candidates {
		if c.Chaos.Calls(s) > 0 {
			return s
		}
	}
	t.Fatal("no candidate server received traffic")
	return ""
}

// other returns the peer of a two-server cluster's instance.
func other(s string) string {
	if s == "server1" {
		return "server2"
	}
	return "server1"
}

// untilFaultExercised repeatedly targets a traffic-bearing server with the
// fault and runs `attempt` until the fault was actually injected at least
// once (the routing table can be rebuilt concurrently on external-view
// events, re-rolling which replica is primary). `attempt` must assert
// everything that holds whether or not the fault fired; untilFaultExercised
// returns the victim once it did fire.
func untilFaultExercised(t *testing.T, c *Cluster, f chaos.Fault, attempt func(t *testing.T, victim string)) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		victim := victimFor(t, c, "server1", "server2")
		c.Chaos.SetFault(victim, f) // resets the victim's counters
		attempt(t, victim)
		exercised := c.Chaos.Calls(victim) > 0
		c.Chaos.Clear(victim)
		c.Chaos.Clear(other(victim))
		if exercised {
			return victim
		}
		if time.Now().After(deadline) {
			t.Fatal("fault was never exercised")
		}
	}
}

func assertFullCount(t *testing.T, res *broker.Response) {
	t.Helper()
	if res.Partial {
		t.Fatalf("partial result: %v", res.Exceptions)
	}
	if got := res.Rows[0][0].(int64); got != 400 {
		t.Fatalf("count = %d, want 400", got)
	}
	if got := res.Rows[0][1].(float64); got != float64(399*400/2) {
		t.Fatalf("sum = %v, want %v", got, 399*400/2)
	}
	if res.ServersResponded != res.ServersQueried {
		t.Fatalf("queried/responded = %d/%d", res.ServersQueried, res.ServersResponded)
	}
}

// TestChaosReplicaDiesMidScatterRetryRecovers is the headline scenario: one
// replica fails every call mid-query, but with a second replica per segment
// the broker's retry path still assembles the correct full result.
func TestChaosReplicaDiesMidScatterRetryRecovers(t *testing.T) {
	c, err := NewLocal(Options{Servers: 2, BrokerTemplate: chaosBrokerConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	loadOffline(t, c, 2)

	var last *broker.Response
	victim := untilFaultExercised(t, c, chaos.Fault{FailAll: true}, func(t *testing.T, victim string) {
		res, err := c.Execute(context.Background(), "SELECT count(*), sum(clicks) FROM events")
		if err != nil {
			t.Fatal(err)
		}
		// The dead replica never prevents the correct full result.
		assertFullCount(t, res)
		last = res
	})
	// The failure is visible in the exception detail, marked recovered.
	recovered := 0
	for _, e := range last.ServerExceptions {
		if e.Server == victim && e.Recovered {
			recovered++
		}
	}
	if recovered == 0 {
		t.Fatalf("no recovered exception for %s: %+v", victim, last.ServerExceptions)
	}
	// The recovery is also observable from the outside: the dead replica
	// forced at least one retry, and the masked failure shows up as a
	// recovered server exception in the broker's metrics.
	if got := c.Metrics.Value("pinot_broker_retries_total"); got == 0 {
		t.Fatal("pinot_broker_retries_total = 0 after a replica died mid-scatter")
	}
	if got := c.Metrics.Value("pinot_broker_server_exceptions_total", "true"); got == 0 {
		t.Fatal(`pinot_broker_server_exceptions_total{recovered="true"} = 0 after recovery`)
	}
}

// TestChaosAllReplicasFailExplicitPartial: when every replica of a segment
// group fails, the response must be explicitly partial with
// ServersResponded < ServersQueried, never silently wrong.
func TestChaosAllReplicasFailExplicitPartial(t *testing.T) {
	c, err := NewLocal(Options{Servers: 2, BrokerTemplate: chaosBrokerConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	loadOffline(t, c, 2)

	c.Chaos.SetFault("server1", chaos.Fault{FailAll: true})
	c.Chaos.SetFault("server2", chaos.Fault{FailAll: true})
	res, err := c.Execute(context.Background(), "SELECT count(*), sum(clicks) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("expected explicitly partial result")
	}
	if res.ServersResponded >= res.ServersQueried {
		t.Fatalf("queried/responded = %d/%d, want responded < queried",
			res.ServersQueried, res.ServersResponded)
	}
	if len(res.Exceptions) == 0 {
		t.Fatal("expected client-visible exceptions")
	}
	found := false
	for _, e := range res.Exceptions {
		if strings.Contains(e, "chaos: injected fault") {
			found = true
		}
	}
	if !found {
		t.Fatalf("exceptions don't surface the injected fault: %v", res.Exceptions)
	}

	// The degraded response is counted against the table it served.
	if got := c.Metrics.Value("pinot_broker_partial_results_total", "events"); got == 0 {
		t.Fatal(`pinot_broker_partial_results_total{table="events"} = 0 after partial result`)
	}

	// Clearing the faults restores exact results.
	c.Chaos.Clear("server1")
	c.Chaos.Clear("server2")
	res, err = c.Execute(context.Background(), "SELECT count(*), sum(clicks) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	assertFullCount(t, res)
}

// TestChaosHungServerRecoveredByDeadline: a server that stops answering
// (hangs until context cancellation) must not consume the whole query
// budget — the per-server deadline fires and the retry path recovers.
func TestChaosHungServerRecoveredByDeadline(t *testing.T) {
	cfg := chaosBrokerConfig()
	// Each server attempt gets half the query timeout: 200 ms here.
	cfg.QueryTimeout = 400 * time.Millisecond
	c, err := NewLocal(Options{Servers: 2, BrokerTemplate: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	loadOffline(t, c, 2)

	var last *broker.Response
	victim := untilFaultExercised(t, c, chaos.Fault{Hang: true}, func(t *testing.T, victim string) {
		res, err := c.Execute(context.Background(), "SELECT count(*), sum(clicks) FROM events")
		if err != nil {
			t.Fatal(err)
		}
		assertFullCount(t, res)
		last = res
	})
	recovered := false
	for _, e := range last.ServerExceptions {
		if e.Server == victim && e.Recovered {
			recovered = true
		}
	}
	if !recovered {
		t.Fatalf("hang not recovered: %+v", last.ServerExceptions)
	}
}

// TestChaosHedgeMasksDelayedReplica: the hedged duplicate request masks a
// replica delayed far past the hedge threshold, before any retry.
func TestChaosHedgeMasksDelayedReplica(t *testing.T) {
	cfg := chaosBrokerConfig()
	cfg.QueryTimeout = 5 * time.Second
	cfg.HedgeDelay = 10 * time.Millisecond
	c, err := NewLocal(Options{Servers: 2, BrokerTemplate: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	loadOffline(t, c, 2)

	// Delayed far past the hedge threshold (and past the query timeout, so
	// a pass proves the hedge won, not the straggler).
	untilFaultExercised(t, c, chaos.Fault{Latency: time.Minute}, func(t *testing.T, victim string) {
		res, err := c.Execute(context.Background(), "SELECT count(*), sum(clicks) FROM events")
		if err != nil {
			t.Fatal(err)
		}
		assertFullCount(t, res)
	})
	// The straggler holds its attempt for 2.5 s, so a full result with no
	// retry can only be the hedge's — the hedge counter is the proof the
	// speculative duplicate fired.
	if got := c.Metrics.Value("pinot_broker_hedges_total"); got == 0 {
		t.Fatal("pinot_broker_hedges_total = 0 after a hedge masked a delayed replica")
	}
	if got := c.Metrics.Value("pinot_broker_retries_total"); got != 0 {
		t.Fatalf("pinot_broker_retries_total = %d, want 0 (the hedge answered)", got)
	}
}

// TestChaosFailuresThenRecover: a count-based N-failures-then-recover
// schedule on a single-replica table produces exactly two explicitly partial
// responses and then exact results — fully deterministic, no timing.
func TestChaosFailuresThenRecover(t *testing.T) {
	c, err := NewLocal(Options{Servers: 1, BrokerTemplate: chaosBrokerConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	loadOffline(t, c, 1)

	c.Chaos.SetFault("server1", chaos.Fault{FailFirst: 2})
	for i := 0; i < 2; i++ {
		res, err := c.Execute(context.Background(), "SELECT count(*) FROM events")
		if err != nil {
			t.Fatal(err)
		}
		if !res.Partial || res.ServersResponded >= res.ServersQueried {
			t.Fatalf("query %d: want explicit partial, got %d/%d partial=%v",
				i, res.ServersResponded, res.ServersQueried, res.Partial)
		}
	}
	res, err := c.Execute(context.Background(), "SELECT count(*) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || res.Rows[0][0].(int64) != 400 {
		t.Fatalf("post-recovery query: partial=%v rows=%v", res.Partial, res.Rows)
	}
	if calls, injected := c.Chaos.Calls("server1"), c.Chaos.Injected("server1"); calls != 3 || injected != 2 {
		t.Fatalf("calls/injected = %d/%d, want 3/2", calls, injected)
	}
}

// TestChaosCorruptResponseRejectedAndRetried: a mangled response payload
// must fail shape validation and fall to the retry path instead of
// poisoning the merged result.
func TestChaosCorruptResponseRejectedAndRetried(t *testing.T) {
	c, err := NewLocal(Options{Servers: 2, BrokerTemplate: chaosBrokerConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	loadOffline(t, c, 2)

	var last *broker.Response
	victim := untilFaultExercised(t, c, chaos.Fault{Corrupt: true}, func(t *testing.T, victim string) {
		res, err := c.Execute(context.Background(), "SELECT count(*), sum(clicks) FROM events")
		if err != nil {
			t.Fatal(err)
		}
		assertFullCount(t, res)
		last = res
	})
	recovered := false
	for _, e := range last.ServerExceptions {
		if e.Server == victim && e.Recovered {
			recovered = true
		}
	}
	if !recovered {
		t.Fatalf("corruption not surfaced as recovered exception: %+v", last.ServerExceptions)
	}
	// A corrupt payload is rejected, retried, and recorded: the retry
	// counter and the recovered-exception counter both move.
	if got := c.Metrics.Value("pinot_broker_retries_total"); got == 0 {
		t.Fatal("pinot_broker_retries_total = 0 after a corrupt response forced a retry")
	}
	if got := c.Metrics.Value("pinot_broker_server_exceptions_total", "true"); got == 0 {
		t.Fatal(`pinot_broker_server_exceptions_total{recovered="true"} = 0 after corruption recovery`)
	}
}

// TestChaosControllerSessionExpiryDuringCompletion expires the lead
// controller's Zookeeper sessions while realtime segments are being
// committed: leadership moves (or is re-acquired over a fresh session) and
// the completion protocol still commits every segment exactly once.
func TestChaosControllerSessionExpiryDuringCompletion(t *testing.T) {
	c, err := NewLocal(Options{Controllers: 2, Servers: 2, BrokerTemplate: chaosBrokerConfig()})
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
	produceEvents(t, c, "events", 0, 30)
	waitForCount(t, c, "SELECT count(*) FROM rtevents", 30, 5*time.Second)

	// Cross the flush threshold and immediately expire the leader's
	// sessions, so completion has to survive the reconnect/failover.
	leader, ok := c.Leader()
	if !ok {
		t.Fatal("no leader")
	}
	produceEvents(t, c, "events", 30, 170)
	leader.ExpireSession()

	if _, err := c.WaitForLeader(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForOnline("rtevents_REALTIME", 2, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	waitForCount(t, c, "SELECT count(*) FROM rtevents", 200, 10*time.Second)
	res, err := c.Execute(context.Background(), "SELECT sum(clicks) FROM rtevents")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(float64); got != float64(199*200/2) {
		t.Fatalf("sum = %v, want %v (duplicate or lost commits)", got, 199*200/2)
	}
}

// TestChaosPartitionStallPausesIngestion stalls one stream partition:
// consumers stop advancing on it without erroring, the other partition keeps
// ingesting, and resuming drains the backlog.
func TestChaosPartitionStallPausesIngestion(t *testing.T) {
	c, err := NewLocal(Options{Servers: 2, BrokerTemplate: chaosBrokerConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	topic, err := c.Streams.CreateTopic("events", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(realtimeConfig(t, 1, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForConsuming("rtevents_REALTIME", 2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	produceEvents(t, c, "events", 0, 30)
	waitForCount(t, c, "SELECT count(*) FROM rtevents", 30, 5*time.Second)

	if err := topic.StallPartition(0); err != nil {
		t.Fatal(err)
	}
	// Events 30..49 split evenly; only partition 1's ten become visible.
	produceEvents(t, c, "events", 30, 20)
	waitForCount(t, c, "SELECT count(*) FROM rtevents", 40, 5*time.Second)

	if err := topic.ResumePartition(0); err != nil {
		t.Fatal(err)
	}
	waitForCount(t, c, "SELECT count(*) FROM rtevents", 50, 5*time.Second)
}

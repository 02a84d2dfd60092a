package controller

import (
	"context"
	"testing"
	"time"

	"pinot/internal/helix"
	"pinot/internal/metrics"
	"pinot/internal/objstore"
	"pinot/internal/stream"
	"pinot/internal/table"
	"pinot/internal/transport"
	"pinot/internal/zkmeta"
)

// TestCompletionVerdictCountersMatchTranscript drives a known
// completion-protocol transcript through two real controllers sharing one
// registry and pins every verdict counter to the exact transcript: the
// metrics must be a faithful ledger of the protocol, not an approximation.
func TestCompletionVerdictCountersMatchTranscript(t *testing.T) {
	reg := metrics.NewRegistry()
	store := zkmeta.NewStore()
	objects := objstore.NewMem()
	streams := stream.NewCluster()

	cfg := func(instance string) Config {
		return Config{
			Cluster:  "verdicts",
			Instance: instance,
			// A window far beyond the test keeps the FSM purely
			// poll-count-driven: no timer can flip HOLD into COMMIT.
			completionWindow: time.Hour,
			Metrics:          reg,
		}
	}
	c1 := New(cfg("ctrlA"), store, objects, streams)
	c2 := New(cfg("ctrlB"), store, objects, streams)
	if err := c1.Start(); err != nil {
		t.Fatal(err)
	}
	defer c1.Stop()
	if err := c2.Start(); err != nil {
		t.Fatal(err)
	}
	defer c2.Stop()

	var leader, follower *Controller
	deadline := time.Now().Add(5 * time.Second)
	for leader == nil && time.Now().Before(deadline) {
		switch {
		case c1.IsLeader():
			leader, follower = c1, c2
		case c2.IsLeader():
			leader, follower = c2, c1
		default:
			time.Sleep(2 * time.Millisecond)
		}
	}
	if leader == nil {
		t.Fatal("no controller became leader")
	}

	// Two CONSUMING replicas so the FSM expects two polls before acting.
	const resource, seg = "rt_REALTIME", "rt__0__0"
	err := leader.helixAdmin().SetIdealState(&helix.IdealState{
		Resource:    resource,
		NumReplicas: 2,
		Partitions: map[string]map[string]string{
			seg: {"server1": helix.StateConsuming, "server2": helix.StateConsuming},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The IN_PROGRESS record every consuming segment has: a poll for a
	// segment without one is held, opening no completion.
	meta := &table.SegmentMeta{Name: seg, Resource: resource, Status: table.StatusInProgress, EndOffset: -1}
	if err := leader.session().CreateAll(leader.segmentMetaPath(resource, seg), meta.Marshal()); err != nil {
		t.Fatal(err)
	}

	poll := func(c *Controller, instance string, offset int64) transport.SegmentConsumedAction {
		t.Helper()
		resp, err := c.SegmentConsumed(context.Background(), &transport.SegmentConsumedRequest{
			Segment: seg, Resource: resource, Instance: instance, Offset: offset,
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Action
	}

	// The transcript. Each step's expected action is asserted inline so a
	// protocol change fails here, not in the counter comparison below.
	if got := poll(follower, "server1", 50); got != transport.ActionNotLeader {
		t.Fatalf("follower poll: %s, want NOTLEADER", got)
	}
	if got := poll(leader, "server1", 50); got != transport.ActionHold {
		t.Fatalf("first poll: %s, want HOLD", got)
	}
	if got := poll(leader, "server2", 100); got != transport.ActionCommit {
		t.Fatalf("second poll at max: %s, want COMMIT", got)
	}
	if got := poll(leader, "server1", 50); got != transport.ActionCatchup {
		t.Fatalf("behind replica: %s, want CATCHUP", got)
	}
	if got := poll(leader, "server1", 100); got != transport.ActionHold {
		t.Fatalf("caught-up replica: %s, want HOLD", got)
	}

	// The counters must match the transcript exactly — per instance, per
	// action, including the zero rows.
	const name = "pinot_controller_completion_verdicts_total"
	want := map[string]map[transport.SegmentConsumedAction]int64{
		leader.Instance(): {
			transport.ActionHold:      2,
			transport.ActionCatchup:   1,
			transport.ActionCommit:    1,
			transport.ActionKeep:      0,
			transport.ActionDiscard:   0,
			transport.ActionNotLeader: 0,
		},
		follower.Instance(): {
			transport.ActionHold:      0,
			transport.ActionCatchup:   0,
			transport.ActionCommit:    0,
			transport.ActionKeep:      0,
			transport.ActionDiscard:   0,
			transport.ActionNotLeader: 1,
		},
	}
	for instance, actions := range want {
		for action, n := range actions {
			if got := reg.Value(name, instance, string(action)); got != n {
				t.Errorf("%s{instance=%q,action=%q} = %d, want %d", name, instance, action, got, n)
			}
		}
	}
	if got := reg.Total(name); got != 5 {
		t.Errorf("total verdicts = %d, want 5", got)
	}
}

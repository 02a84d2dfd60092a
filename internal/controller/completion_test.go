package controller

import (
	"context"
	"testing"
	"time"

	"pinot/internal/helix"
	"pinot/internal/objstore"
	"pinot/internal/segment"
	"pinot/internal/stream"
	"pinot/internal/table"
	"pinot/internal/transport"
	"pinot/internal/zkmeta"
)

// The FSM is exercised here in isolation; the full replica protocol runs in
// the cluster integration tests.

func TestFSMAllReplicasAgree(t *testing.T) {
	now := time.Unix(0, 0)
	f := newCompletionFSM("r", "s", 3, time.Second)
	// First two replicas poll at the same offset: HOLD until all report.
	if resp := f.onPoll("a", 100, now); resp.Action != transport.ActionHold {
		t.Fatalf("a: %+v", resp)
	}
	if resp := f.onPoll("b", 100, now); resp.Action != transport.ActionHold {
		t.Fatalf("b: %+v", resp)
	}
	// Third replica completes the set and, being at max offset, commits.
	if resp := f.onPoll("c", 100, now); resp.Action != transport.ActionCommit {
		t.Fatalf("c: %+v", resp)
	}
	// The others hold while the committer works.
	if resp := f.onPoll("a", 100, now); resp.Action != transport.ActionHold {
		t.Fatalf("a while committing: %+v", resp)
	}
	// Commit lands.
	f.state = committed
	f.committedOffset = 100
	if resp := f.onPoll("a", 100, now); resp.Action != transport.ActionKeep {
		t.Fatalf("a post-commit: %+v", resp)
	}
	if resp := f.onPoll("b", 99, now); resp.Action != transport.ActionDiscard {
		t.Fatalf("b post-commit: %+v", resp)
	}
}

func TestFSMCatchup(t *testing.T) {
	now := time.Unix(0, 0)
	f := newCompletionFSM("r", "s", 2, time.Second)
	if resp := f.onPoll("a", 80, now); resp.Action != transport.ActionHold {
		t.Fatalf("a: %+v", resp)
	}
	// b polls at a higher offset: a must catch up to 120 before anyone
	// commits; b (at max) becomes committer.
	if resp := f.onPoll("b", 120, now); resp.Action != transport.ActionCommit {
		t.Fatalf("b: %+v", resp)
	}
	resp := f.onPoll("a", 80, now)
	if resp.Action != transport.ActionCatchup || resp.TargetOffset != 120 {
		t.Fatalf("a catchup: %+v", resp)
	}
	// After catching up, a holds.
	if resp := f.onPoll("a", 120, now); resp.Action != transport.ActionHold {
		t.Fatalf("a caught up: %+v", resp)
	}
}

func TestFSMWindowExpiryWithMissingReplica(t *testing.T) {
	start := time.Unix(0, 0)
	f := newCompletionFSM("r", "s", 3, 100*time.Millisecond)
	if resp := f.onPoll("a", 50, start); resp.Action != transport.ActionHold {
		t.Fatalf("a: %+v", resp)
	}
	// The third replica never shows up; after the window the first
	// caught-up poller commits.
	later := start.Add(200 * time.Millisecond)
	if resp := f.onPoll("a", 50, later); resp.Action != transport.ActionCommit {
		t.Fatalf("a after window: %+v", resp)
	}
}

func TestFSMCommitterFailover(t *testing.T) {
	start := time.Unix(0, 0)
	f := newCompletionFSM("r", "s", 2, 100*time.Millisecond)
	f.onPoll("a", 10, start)
	if resp := f.onPoll("b", 10, start); resp.Action != transport.ActionCommit {
		t.Fatal("b should commit")
	}
	// b dies. a polls within the grace period: HOLD.
	if resp := f.onPoll("a", 10, start.Add(50*time.Millisecond)); resp.Action != transport.ActionHold {
		t.Fatalf("a within grace: %+v", resp)
	}
	// After the grace period a is promoted to committer.
	if resp := f.onPoll("a", 10, start.Add(300*time.Millisecond)); resp.Action != transport.ActionCommit {
		t.Fatalf("a after grace: %+v", resp)
	}
	if f.committer != "a" {
		t.Fatalf("committer = %s", f.committer)
	}
}

func TestFSMLateHigherOffsetRegathers(t *testing.T) {
	start := time.Unix(0, 0)
	f := newCompletionFSM("r", "s", 3, 50*time.Millisecond)
	f.onPoll("a", 10, start)
	// Window expires with only a and b; b commits at offset 10.
	if resp := f.onPoll("b", 10, start.Add(100*time.Millisecond)); resp.Action != transport.ActionCommit {
		t.Fatal("b should commit")
	}
	// c arrives late with MORE data: the committer designation is stale.
	resp := f.onPoll("c", 25, start.Add(120*time.Millisecond))
	if resp.Action == transport.ActionKeep || resp.Action == transport.ActionDiscard {
		t.Fatalf("c: %+v", resp)
	}
	// b now has to catch up to 25.
	resp = f.onPoll("b", 10, start.Add(130*time.Millisecond))
	if resp.Action != transport.ActionCatchup || resp.TargetOffset != 25 {
		t.Fatalf("b re-gathered: %+v", resp)
	}
}

func TestPickReplicasBalances(t *testing.T) {
	servers := []string{"s1", "s2", "s3", "s4"}
	is := &helix.IdealState{Partitions: map[string]map[string]string{}}
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		picked := pickReplicas(servers, is, 2, i)
		if len(picked) != 2 {
			t.Fatalf("picked %v", picked)
		}
		assignment := map[string]string{}
		for _, p := range picked {
			counts[p]++
			assignment[p] = "ONLINE"
		}
		is.Partitions[string(rune('a'+i))] = assignment
	}
	for s, n := range counts {
		if n < 15 || n > 25 {
			t.Fatalf("server %s got %d of 80 assignments", s, n)
		}
	}
	// Replicas never exceed the server count.
	if got := pickReplicas([]string{"only"}, is, 3, 0); len(got) != 1 {
		t.Fatalf("overprovisioned replicas: %v", got)
	}
}

// startLeader starts one controller over fresh stores and waits until it
// leads.
func startLeader(t *testing.T, objects objstore.Store) *Controller {
	t.Helper()
	c := New(Config{Cluster: "completion", Instance: "ctrl", completionWindow: time.Hour}, zkmeta.NewStore(), objects, stream.NewCluster())
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	for deadline := time.Now().Add(5 * time.Second); !c.IsLeader(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the controller never led")
		}
	}
	return c
}

// TestPollForUnknownSegmentOpensNoFSM: a poll naming a segment that has no
// segment record is held and leaves no completion behind.
func TestPollForUnknownSegmentOpensNoFSM(t *testing.T) {
	c := startLeader(t, objstore.NewMem())
	resp, err := c.SegmentConsumed(context.Background(), &transport.SegmentConsumedRequest{
		Segment: "probe__0__0", Resource: "probe_REALTIME", Instance: "server1", Offset: 7,
	})
	if err != nil || resp.Action != transport.ActionHold {
		t.Fatalf("poll for an unknown segment: %+v, %v; want HOLD", resp, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.completions) != 0 {
		t.Errorf("the poll opened completions %v", c.completions)
	}
}

// TestCommitOfDoneSegmentStoresNoObject: a commit that finds its segment's
// record already DONE (written by a leader that lost its seat mid-commit)
// fails and stores no object.
func TestCommitOfDoneSegmentStoresNoObject(t *testing.T) {
	objects := objstore.NewMem()
	c := startLeader(t, objects)
	const resource, seg = "rt_REALTIME", "rt__0__0"
	err := c.helixAdmin().SetIdealState(&helix.IdealState{
		Resource: resource, NumReplicas: 1,
		Partitions: map[string]map[string]string{seg: {"server1": helix.StateConsuming}},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := c.segmentMetaPath(resource, seg)
	meta := &table.SegmentMeta{Name: seg, Resource: resource, Status: table.StatusInProgress, EndOffset: -1}
	if err := c.session().CreateAll(path, meta.Marshal()); err != nil {
		t.Fatal(err)
	}
	resp, err := c.SegmentConsumed(context.Background(), &transport.SegmentConsumedRequest{
		Segment: seg, Resource: resource, Instance: "server1", Offset: 10,
	})
	if err != nil || resp.Action != transport.ActionCommit {
		t.Fatalf("poll: %+v, %v; want COMMIT", resp, err)
	}
	meta.Status, meta.EndOffset = table.StatusDone, 10
	if _, err := c.session().Set(path, meta.Marshal(), -1); err != nil {
		t.Fatal(err)
	}

	schema, err := segment.NewSchema("rt", []segment.FieldSpec{
		{Name: "country", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "clicks", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := segment.NewBuilder("rt", seg, schema, segment.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(segment.Row{"us", int64(1)}); err != nil {
		t.Fatal(err)
	}
	built, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := built.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	commit, err := c.CommitSegment(context.Background(), &transport.SegmentCommitRequest{
		Segment: seg, Resource: resource, Instance: "server1", Offset: 10, Blob: blob,
	})
	if err != nil || commit.Success {
		t.Fatalf("commit of a DONE segment: %+v, %v; want refused", commit, err)
	}
	if keys, err := objects.List(""); err != nil || len(keys) != 0 {
		t.Errorf("the refused commit stored objects %v (%v)", keys, err)
	}
}

package cluster

import (
	"context"
	"testing"
	"time"

	"pinot/internal/helix"
	"pinot/internal/segment"
)

// TestReplicaRefusesBlobThatFailsItsChecksum: a loaded segment is served
// from the downloaded bytes as they are, so a replica holds them to the CRC
// the controller recorded at upload before it serves one of them. One byte of
// the stored blob flips after two replicas loaded it; one of them dies and
// the repair hands its place to a blank server, which downloads the damaged
// blob. That server must end in ERROR, never ONLINE, and count the refusal;
// the surviving replica keeps answering for the whole table.
func TestReplicaRefusesBlobThatFailsItsChecksum(t *testing.T) {
	c, err := NewLocal(Options{Servers: 3, ControllerTemplate: controllerConfigFast()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	const resource, seg = "events_OFFLINE", "events_0"
	if err := c.AddTable(offlineConfig(t, 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.UploadSegment(resource, buildBlob(t, seg, 0, 30, 100)); err != nil {
		t.Fatal(err)
	}
	states := func() map[string]string {
		ev, err := c.ExternalView(resource)
		if err != nil {
			return nil
		}
		return ev.Partitions[seg]
	}
	await := func(what string, cond func(map[string]string) bool) map[string]string {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := states()
			if cond(st) {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened: %v", what, st)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	online := func(st map[string]string) (out []string) {
		for inst, s := range st {
			if s == helix.StateOnline {
				out = append(out, inst)
			}
		}
		return out
	}
	hosts := online(await("two replicas online", func(st map[string]string) bool { return len(online(st)) == 2 }))

	leader, err := c.WaitForLeader(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	metas, err := leader.SegmentMetas(resource)
	if err != nil || len(metas) != 1 {
		t.Fatalf("segment metadata: %v %v", metas, err)
	}
	stored, err := c.Objects.Get(metas[0].ObjectKey)
	if err != nil {
		t.Fatal(err)
	}
	// A flip the loader's own checks cannot see (a metric value, say): only
	// the checksum stands between it and the queries.
	damaged := append([]byte(nil), stored...) // Get's bytes are the store's: never written
	for at := 16; ; at++ {
		damaged[at] ^= 0x04
		if _, err := segment.Unmarshal(damaged); err == nil {
			break
		}
		damaged[at] ^= 0x04
	}
	if err := c.Objects.Put(metas[0].ObjectKey, damaged); err != nil {
		t.Fatal(err)
	}

	var victim, spare string
	for _, s := range c.Servers {
		switch inst := s.Instance(); {
		case inst == hosts[0]:
			victim = inst
			s.Kill()
		case inst != hosts[1]:
			spare = inst
		}
	}
	st := await("the spare server's refusal", func(st map[string]string) bool { return st[spare] == helix.StateError })
	if st[hosts[1]] != helix.StateOnline {
		t.Fatalf("the surviving replica is %s", st[hosts[1]])
	}
	refused := c.Metrics.Counter("pinot_server_segment_load_failures_total", "", "instance", "resource", "reason").
		With(spare, resource, "checksum").Value()
	if refused < 1 {
		t.Fatalf("the refusal was not counted (killed %s, spare %s)", victim, spare)
	}
	// The table stays whole on the replica that loaded the blob before the
	// damage, once routing has dropped the dead server.
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := c.Execute(context.Background(), "SELECT count(*) FROM events")
		if err == nil && !res.Partial && res.Rows[0][0].(int64) == 30 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the surviving replica stopped answering: %+v err=%v", res, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := states()[spare]; got == helix.StateOnline {
		t.Fatalf("the server holding a blob that fails its checksum went %s", got)
	}
}

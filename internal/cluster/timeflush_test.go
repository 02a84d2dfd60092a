package cluster

import (
	"context"
	"testing"
	"time"

	"pinot/internal/server"
	"pinot/internal/table"
	"pinot/internal/transport"
)

// TestTimeBasedFlushWithDivergentReplicas exercises the completion
// protocol's CATCHUP/DISCARD reconciliation: replicas flushing on local
// clocks reach the end criteria at different offsets (paper 3.3.6: "two
// consumers consuming for a certain amount of time based on their local
// clock will likely diverge"), yet the committed segments are identical and
// no event is lost or duplicated.
func TestTimeBasedFlushWithDivergentReplicas(t *testing.T) {
	c, err := NewLocal(Options{Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if _, err := c.Streams.CreateTopic("events", 1); err != nil {
		t.Fatal(err)
	}
	cfg := realtimeConfig(t, 2, 0)
	cfg.FlushThresholdRows = 0
	cfg.FlushThresholdMillis = 150
	if err := c.AddTable(cfg); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForConsuming("rtevents_REALTIME", 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Trickle events across several flush windows so replicas keep
	// hitting the time criterion mid-stream.
	const total = 400
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i += 40 {
			produceEvents(t, c, "events", i, 40)
			time.Sleep(60 * time.Millisecond)
		}
	}()
	<-done
	// Everything must become visible exactly once.
	waitForCount(t, c, "SELECT count(*) FROM rtevents", total, 20*time.Second)
	// At least one segment committed via the time criterion.
	leader, _ := c.Leader()
	deadline := time.Now().Add(10 * time.Second)
	for {
		metas, err := leader.SegmentMetas("rtevents_REALTIME")
		if err != nil {
			t.Fatal(err)
		}
		committed := 0
		for _, m := range metas {
			if m.Status == table.StatusDone {
				committed++
				if m.EndOffset <= m.StartOffset {
					t.Fatalf("committed segment with bad offsets: %+v", m)
				}
			}
		}
		if committed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no segment committed on time criterion: %+v", metas)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The sum invariant catches duplicates as well as losses.
	res, err := c.Execute(context.Background(), "SELECT sum(clicks) FROM rtevents")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(float64); got != float64(total*(total-1)/2) {
		t.Fatalf("sum = %v, want %v", got, total*(total-1)/2)
	}
}

// TestCatchupPathExercised forces replica divergence: a burst of events with
// a tiny consume batch and a time-based flush means the two replicas reach
// their local end criteria at different offsets, so the controller must
// issue CATCHUP (and possibly DISCARD) instructions before the segment
// commits.
func TestCatchupPathExercised(t *testing.T) {
	c, err := NewLocal(Options{
		Servers:        2,
		ServerTemplate: server.Config{ConsumeBatch: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if _, err := c.Streams.CreateTopic("events", 1); err != nil {
		t.Fatal(err)
	}
	cfg := realtimeConfig(t, 2, 0)
	cfg.FlushThresholdRows = 0
	cfg.FlushThresholdMillis = 60
	if err := c.AddTable(cfg); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForConsuming("rtevents_REALTIME", 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Produce continuously across many flush windows: each replica's
	// timer fires at a slightly different instant, and the stream head
	// keeps moving, so their end offsets differ.
	const total = 30000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i += 250 {
			produceEvents(t, c, "events", i, 250)
			time.Sleep(4 * time.Millisecond)
		}
	}()
	<-done
	waitForCount(t, c, "SELECT count(*) FROM rtevents", total, 30*time.Second)
	// The sum invariant proves no loss/duplication despite divergence.
	res, err := c.Execute(context.Background(), "SELECT sum(clicks) FROM rtevents")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].(float64); got != float64(total)*(total-1)/2 {
		t.Fatalf("sum = %v, want %v", got, float64(total)*(total-1)/2)
	}
	// Completion is asynchronous to visibility (consuming segments are
	// queryable before they commit): wait until instructions flowed.
	var catchups, discards, commits int64
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		catchups, discards, commits = 0, 0, 0
		for _, s := range c.Servers {
			count := func(a transport.SegmentConsumedAction) int64 {
				return c.Metrics.Value("pinot_server_completion_actions_total", s.Instance(), string(a))
			}
			catchups += count(transport.ActionCatchup)
			discards += count(transport.ActionDiscard)
			commits += count(transport.ActionCommit)
		}
		if commits > 0 && (catchups > 0 || discards > 0) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if commits == 0 {
		t.Fatal("no COMMIT instruction observed")
	}
	// At least one replica diverged and was told to catch up or discard.
	if catchups == 0 && discards == 0 {
		t.Fatalf("replicas never diverged (catchup=%d discard=%d); tighten the test parameters", catchups, discards)
	}
	t.Logf("completion actions: commits=%d catchups=%d discards=%d", commits, catchups, discards)
}

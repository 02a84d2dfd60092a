package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pinot/internal/broker"
	"pinot/internal/chaos"
	"pinot/internal/query"
	"pinot/internal/segment"
)

// loadTimeSlicedOffline uploads four 100-row segments with disjoint day
// ranges — segment i covers days [100i+100, 100i+104] — so broker-side
// time-range pruning has something to bite on.
func loadTimeSlicedOffline(t *testing.T, c *Cluster, replicas int) {
	t.Helper()
	if err := c.AddTable(offlineConfig(t, replicas)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		blob := buildBlob(t, fmt.Sprintf("events_%d", i), i*100, 100, int64(100*i+100))
		if err := c.UploadSegment("events_OFFLINE", blob); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitForOnline("events_OFFLINE", 4, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

func pruneIdentity(s query.Stats) int {
	return s.SegmentsPrunedByBroker + s.SegmentsPrunedByServer + s.SegmentsPrunedByValue + s.SegmentsMatched
}

func TestBrokerTimeRangePruning(t *testing.T) {
	c, err := NewLocal(Options{Servers: 2, BrokerTemplate: broker.Config{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	loadTimeSlicedOffline(t, c, 1)

	// Selective query: only segment 0 (days 100-104) can hold matches.
	res, err := c.Execute(context.Background(),
		"SELECT count(*), sum(clicks) FROM events WHERE day BETWEEN 100 AND 104")
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("partial result: %v", res.Exceptions)
	}
	if got := res.Rows[0][0].(int64); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	if res.Stats.SegmentsPrunedByBroker != 3 {
		t.Fatalf("broker pruned %d segments, want 3: %+v", res.Stats.SegmentsPrunedByBroker, res.Stats)
	}
	if res.Stats.SegmentsMatched != 1 {
		t.Fatalf("matched %d segments, want 1: %+v", res.Stats.SegmentsMatched, res.Stats)
	}
	if got := pruneIdentity(res.Stats); got != 4 {
		t.Fatalf("accounting identity: %d of 4 segments accounted: %+v", got, res.Stats)
	}
	// Pruned segments stay visible in the candidate accounting.
	if res.Stats.NumSegmentsQueried != 4 || res.Stats.TotalDocs != 400 {
		t.Fatalf("candidate accounting lost pruned segments: %+v", res.Stats)
	}

	// A filter overlapping no segment at all: an exact empty result, not a
	// routing error and not a partial.
	res, err = c.Execute(context.Background(),
		"SELECT count(*) FROM events WHERE day BETWEEN 9000 AND 9001")
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("all-pruned result marked partial: %v", res.Exceptions)
	}
	if got := res.Rows[0][0].(int64); got != 0 {
		t.Fatalf("count = %d, want 0", got)
	}
	if res.Stats.SegmentsPrunedByBroker != 4 {
		t.Fatalf("broker pruned %d segments, want 4: %+v", res.Stats.SegmentsPrunedByBroker, res.Stats)
	}
}

// TestBrokerPruningDisabledMatchesEnabled: a pruning broker+servers answers
// like a pruning-free single-node run over the same four segments — the same
// rows, and the same candidate counters (pruned segments still count in
// NumSegmentsQueried and TotalDocs).
func TestBrokerPruningDisabledMatchesEnabled(t *testing.T) {
	on, err := NewLocal(Options{Servers: 2, BrokerTemplate: broker.Config{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	defer on.Shutdown()
	loadTimeSlicedOffline(t, on, 1)

	var segs []query.IndexedSegment
	for i := 0; i < 4; i++ {
		seg, err := segment.Unmarshal(buildBlob(t, fmt.Sprintf("events_%d", i), i*100, 100, int64(100*i+100)))
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, query.IndexedSegment{Seg: seg})
	}
	schema := eventsSchema(t)

	queries := []string{
		"SELECT count(*), sum(clicks) FROM events WHERE day BETWEEN 100 AND 204",
		"SELECT count(*) FROM events WHERE day >= 300",
		"SELECT sum(clicks) FROM events WHERE country = 'us' AND day < 200",
		"SELECT count(*) FROM events WHERE day BETWEEN 150 AND 160",
		"SELECT memberId, clicks FROM events WHERE day BETWEEN 400 AND 404 ORDER BY clicks DESC LIMIT 10",
	}
	for _, q := range queries {
		ro, err := on.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		rf, err := query.Run(context.Background(), q, segs, schema, query.Options{DisablePruning: true})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if fmt.Sprint(ro.Rows) != fmt.Sprint(rf.Rows) {
			t.Fatalf("%s: rows diverge:\npruned:   %v\nunpruned: %v", q, ro.Rows, rf.Rows)
		}
		if ro.Stats.NumSegmentsQueried != rf.Stats.NumSegmentsQueried || ro.Stats.TotalDocs != rf.Stats.TotalDocs {
			t.Fatalf("%s: candidate accounting diverges:\npruned:   %+v\nunpruned: %+v", q, ro.Stats, rf.Stats)
		}
		if n := pruneIdentity(ro.Stats); n != 4 {
			t.Fatalf("%s: accounting identity: %d of 4 accounted: %+v", q, n, ro.Stats)
		}
	}
}

// TestChaosPruningSurvivesReplicaFailure: with pruning live (the default), a
// replica failing every call must not break time-filtered queries — retries
// recover the full answer and the pruning accounting stays exact.
func TestChaosPruningSurvivesReplicaFailure(t *testing.T) {
	c, err := NewLocal(Options{Servers: 2, BrokerTemplate: chaosBrokerConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	loadTimeSlicedOffline(t, c, 2)

	untilFaultExercised(t, c, chaos.Fault{FailAll: true}, func(t *testing.T, victim string) {
		res, err := c.Execute(context.Background(),
			"SELECT count(*), sum(clicks) FROM events WHERE day BETWEEN 100 AND 204")
		if err != nil {
			t.Fatal(err)
		}
		if res.Partial {
			t.Fatalf("partial despite replica: %v", res.Exceptions)
		}
		// Segments 0 and 1 hold rows 0..199: count 200, sum 199*200/2.
		if got := res.Rows[0][0].(int64); got != 200 {
			t.Fatalf("count = %d, want 200", got)
		}
		if got := res.Rows[0][1].(float64); got != float64(199*200/2) {
			t.Fatalf("sum = %v, want %v", got, 199*200/2)
		}
		if got := pruneIdentity(res.Stats); got != 4 {
			t.Fatalf("accounting identity under faults: %d of 4 accounted: %+v", got, res.Stats)
		}
		if res.Stats.SegmentsPrunedByBroker != 2 {
			t.Fatalf("broker pruned %d, want 2: %+v", res.Stats.SegmentsPrunedByBroker, res.Stats)
		}
	})
}

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"

	"pinot/internal/controller"
	"pinot/internal/helix"
	"pinot/internal/metrics"
	"pinot/internal/objstore"
	"pinot/internal/qcache"
	"pinot/internal/segment"
	"pinot/internal/startree"
	"pinot/internal/stream"
	"pinot/internal/table"
	"pinot/internal/transport"
	"pinot/internal/zkmeta"
)

const testFlushRows = 200

// rig is the smallest deployment a server can run in: one metadata store,
// one controller (lead by default) and the server under test, hosting a
// single-partition realtime table whose segments carry a star-tree, so a
// seal does real work between dropping the mutable copy and serving the
// immutable one.
type rig struct {
	srv      *Server
	reg      *metrics.Registry
	topic    *stream.Topic
	resource string
	produced int
}

func newRig(t *testing.T, cfg Config) *rig { return newRigWith(t, cfg, nil) }

// newRigWith lets a test edit the table's config before the table exists.
func newRigWith(t *testing.T, cfg Config, edit func(*table.Config)) *rig {
	t.Helper()
	store, objects, streams := zkmeta.NewStore(), objstore.NewMem(), stream.NewCluster()
	reg := metrics.NewRegistry()
	ctrl := controller.New(controller.Config{Cluster: "test", Instance: "controller1", Metrics: reg}, store, objects, streams)
	if err := ctrl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Stop)
	waitFor(t, "controller leadership", ctrl.IsLeader)

	cfg.Cluster, cfg.Instance, cfg.Metrics = "test", "server1", reg
	srv := New(cfg, store, objects, streams, func() []transport.ControllerClient {
		return []transport.ControllerClient{ctrl}
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)

	topic, err := streams.CreateTopic("events", 1)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := segment.NewSchema("events", []segment.FieldSpec{
		{Name: "country", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "memberId", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "clicks", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
		{Name: "day", Type: segment.TypeLong, Kind: segment.Time, SingleValue: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	tc := &table.Config{
		Name:               "events",
		Type:               table.Realtime,
		Schema:             schema,
		Replicas:           1,
		StreamTopic:        "events",
		FlushThresholdRows: testFlushRows,
		StarTree:           &startree.Config{DimensionSplitOrder: []string{"country", "memberId"}, Metrics: []string{"clicks"}, MaxLeafRecords: 1},
	}
	if edit != nil {
		edit(tc)
	}
	if err := ctrl.AddTable(tc); err != nil {
		t.Fatal(err)
	}
	r := &rig{srv: srv, reg: reg, topic: topic, resource: tc.Resource()}
	waitFor(t, "first consuming segment", func() bool { return len(srv.HostedSegments(r.resource)) == 1 })
	return r
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *rig) produce(n int) {
	for i := 0; i < n; i++ {
		msg, _ := json.Marshal(map[string]any{
			"country":  fmt.Sprintf("c%d", r.produced%7),
			"memberId": r.produced % 50,
			"clicks":   r.produced,
			"day":      100 + r.produced%5,
		})
		r.topic.ProduceTo(0, nil, msg)
		r.produced++
	}
}

func (r *rig) count(ctx context.Context) (int64, error) {
	resp, err := r.srv.Execute(ctx, &transport.QueryRequest{Resource: r.resource, PQL: "SELECT count(*) FROM events"})
	if err != nil {
		return 0, err
	}
	if len(resp.Exceptions) > 0 {
		return 0, fmt.Errorf("exceptions: %v", resp.Exceptions)
	}
	return resp.Result.Groups.State(0, 0).Count, nil
}

func (r *rig) commits() int64 {
	return r.srv.CompletionActionCounts()[transport.ActionCommit]
}

// TestSealSwapNeverHidesRows is the regression test for the seal swap that
// dropped the consuming entry, released the lock and only then installed the
// sealed segment: clients looping count(*) while the partition seals over
// and over must never see the count fall, which is what a segment in neither
// map looks like from outside.
func TestSealSwapNeverHidesRows(t *testing.T) {
	const seals = 25
	r := newRig(t, Config{})
	ctx, stop := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for ctx.Err() == nil {
				n, err := r.count(context.Background())
				if err != nil {
					t.Errorf("query beside a seal: %v", err)
					return
				}
				if n < last {
					t.Errorf("count(*) fell from %d to %d across a seal", last, n)
					return
				}
				last = n
			}
		}()
	}
	// One flush threshold at a time, so every seal happens with queries in
	// flight and the next one starts only when this one has committed.
	for i := 1; i <= seals && !t.Failed(); i++ {
		r.produce(testFlushRows)
		waitFor(t, fmt.Sprintf("commit %d", i), func() bool { return r.commits() >= int64(i) || t.Failed() })
	}
	waitFor(t, "all rows queryable", func() bool {
		n, err := r.count(context.Background())
		return err != nil || n == int64(r.produced) || t.Failed()
	})
	stop()
	wg.Wait()
	if n, err := r.count(context.Background()); err != nil || n != int64(r.produced) {
		t.Fatalf("after %d seals count(*) = %d, %v; want %d", seals, n, err, r.produced)
	}
}

// TestExecuteStreamEnforcesTightestDeadline pins the budget rule: a query
// runs under min(DefaultTimeout, TimeoutMillis, BudgetMillis), whichever of
// the three is smallest, with zero meaning unset.
func TestExecuteStreamEnforcesTightestDeadline(t *testing.T) {
	r := newRig(t, Config{DefaultTimeout: 400 * time.Millisecond})
	// Every query stalls far longer than any bound below, so the time it
	// takes to fail is the deadline the server enforced.
	r.srv.InjectLatency(time.Minute)
	for _, tc := range []struct {
		name            string
		timeout, budget int64
		want, below     time.Duration // the enforced bound, and the next-tightest candidate
	}{
		{"request timeout is tightest", 60, 30_000, 60 * time.Millisecond, 400 * time.Millisecond},
		{"broker budget is tightest", 30_000, 80, 80 * time.Millisecond, 400 * time.Millisecond},
		{"server default is tightest", 30_000, 30_000, 400 * time.Millisecond, 30 * time.Second},
		{"unset fields fall back to the default", 0, 0, 400 * time.Millisecond, 30 * time.Second},
	} {
		start := time.Now()
		_, err := r.srv.ExecuteStream(context.Background(), &transport.QueryRequest{
			Resource: r.resource, PQL: "SELECT count(*) FROM events",
			TimeoutMillis: tc.timeout, BudgetMillis: tc.budget,
		}, nil)
		took := time.Since(start)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want deadline exceeded", tc.name, err)
		}
		if took < tc.want || took >= tc.below {
			t.Fatalf("%s: failed after %v, want [%v, %v)", tc.name, took, tc.want, tc.below)
		}
	}
}

// TestUnloadConsumingHaltsConsumerAndInvalidatesCaches: taking a consuming
// segment offline must stop its ingestion goroutine and drop exactly that
// segment's entries from both per-segment cache tiers.
func TestUnloadConsumingHaltsConsumerAndInvalidatesCaches(t *testing.T) {
	r := newRig(t, Config{})
	segName := r.srv.HostedSegments(r.resource)[0]
	tdm := r.srv.tables[r.resource]
	tdm.mu.RLock()
	c := tdm.consuming[segName]
	tdm.mu.RUnlock()
	if c == nil {
		t.Fatalf("%s is hosted but not consuming", segName)
	}
	caches := map[string]*qcache.Cache{"aggregate": r.srv.AggCache(), "dictexpr": r.srv.DictExprCache()}
	for _, cache := range caches {
		cache.Put(segName, "events", "k", 1, 8)
		cache.Put("other_segment", "events", "k", 1, 8)
	}

	if err := r.srv.handleTransition(r.resource, segName, helix.StateConsuming, helix.StateOffline); err != nil {
		t.Fatal(err)
	}

	select {
	case <-c.done:
	default:
		t.Fatal("consumer goroutine still running after unload")
	}
	if got := r.srv.HostedSegments(r.resource); len(got) != 0 {
		t.Fatalf("still hosting %v", got)
	}
	for tier, cache := range caches {
		if _, ok := cache.Get(segName, "events", "k"); ok {
			t.Errorf("%s tier kept an entry of the unloaded segment", tier)
		}
		if _, ok := cache.Get("other_segment", "events", "k"); !ok {
			t.Errorf("%s tier dropped another segment's entry", tier)
		}
	}
}

// TestReplicasShareTheStoresBytes: two servers of one process that load the
// same segment serve it from the one copy objstore.Mem holds — dictionary
// values, star-tree bytes and all are views of the store's blob, the same
// memory on both — and answer alike.
func TestReplicasShareTheStoresBytes(t *testing.T) {
	store, objects, streams := zkmeta.NewStore(), objstore.NewMem(), stream.NewCluster()
	reg := metrics.NewRegistry()
	ctrl := controller.New(controller.Config{Cluster: "test", Instance: "controller1", Metrics: reg}, store, objects, streams)
	if err := ctrl.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Stop)
	waitFor(t, "controller leadership", ctrl.IsLeader)
	servers := make([]*Server, 2)
	for i := range servers {
		servers[i] = New(Config{Cluster: "test", Instance: fmt.Sprintf("server%d", i+1), Metrics: reg}, store, objects, streams,
			func() []transport.ControllerClient { return []transport.ControllerClient{ctrl} })
		if err := servers[i].Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(servers[i].Stop)
	}

	schema, err := segment.NewSchema("events", []segment.FieldSpec{
		{Name: "country", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "memberId", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "clicks", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	stCfg := &startree.Config{DimensionSplitOrder: []string{"country", "memberId"}, Metrics: []string{"clicks"}, MaxLeafRecords: 10}
	tc := &table.Config{Name: "events", Type: table.Offline, Schema: schema, Replicas: 2, StarTree: stCfg}
	if err := ctrl.AddTable(tc); err != nil {
		t.Fatal(err)
	}
	b, err := segment.NewBuilder("events", "events_0", schema, segment.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if err := b.Add(segment.Row{fmt.Sprintf("c%d", i%7), int64(i % 900), int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := startree.Build(seg, *stCfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := tree.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	seg.SetStarTreeData(data)
	blob, err := seg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.UploadSegment(tc.Resource(), blob); err != nil {
		t.Fatal(err)
	}
	loaded := make([]*segment.Segment, 2)
	for i, s := range servers {
		waitFor(t, s.Instance()+" loading the segment", func() bool { return len(s.HostedSegments(tc.Resource())) == 1 })
		s.tables[tc.Resource()].mu.RLock()
		loaded[i] = s.tables[tc.Resource()].segments["events_0"].Seg.(*segment.Segment)
		s.tables[tc.Resource()].mu.RUnlock()
	}
	metas, err := ctrl.SegmentMetas(tc.Resource())
	if err != nil || len(metas) != 1 {
		t.Fatalf("segment metadata: %v %v", metas, err)
	}
	stored, err := objects.Get(metas[0].ObjectKey)
	if err != nil {
		t.Fatal(err)
	}
	inStore := func(p *byte) bool {
		lo := uintptr(unsafe.Pointer(&stored[0]))
		return uintptr(unsafe.Pointer(p)) >= lo && uintptr(unsafe.Pointer(p)) < lo+uintptr(len(stored))
	}
	if &blob[0] == &stored[0] {
		t.Fatal("the store kept the uploader's slice")
	}
	for name, at := range map[string]func(s *segment.Segment) *byte{
		"star-tree": func(s *segment.Segment) *byte { return &s.StarTreeData()[0] },
		"memberId dictionary": func(s *segment.Segment) *byte {
			return (*byte)(unsafe.Pointer(&s.Column("memberId").(*segment.Column).DictLongs()[0]))
		},
		"country dictionary": func(s *segment.Segment) *byte {
			return unsafe.StringData(s.Column("country").(*segment.Column).DictStrings()[6])
		},
	} {
		a, b := at(loaded[0]), at(loaded[1])
		if a != b || !inStore(a) {
			t.Errorf("%s: replicas read %p and %p, the store's copy starts at %p", name, a, b, &stored[0])
		}
	}
	for _, s := range servers {
		resp, err := s.Execute(context.Background(), &transport.QueryRequest{Resource: tc.Resource(), PQL: "SELECT sum(clicks) FROM events WHERE country = 'c3'"})
		if err != nil || len(resp.Exceptions) > 0 {
			t.Fatalf("%s: %v %v", s.Instance(), err, resp)
		}
		var want float64
		for i := 3; i < 5000; i += 7 {
			want += float64(i)
		}
		if got := resp.Result.Groups.State(0, 0).Sum; got != want {
			t.Fatalf("%s: sum(clicks) = %v, want %v", s.Instance(), got, want)
		}
	}
}

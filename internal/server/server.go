// Package server implements the Pinot server (paper 3.2): the component
// hosting segments and processing queries on them. Servers execute Helix
// state transitions — downloading segments from the object store for
// OFFLINE→ONLINE, consuming from the stream for OFFLINE→CONSUMING — and run
// per-segment query plans under a multitenant token-bucket scheduler.
package server

import (
	"context"
	"fmt"
	"hash/crc32"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"pinot/internal/controller"
	"pinot/internal/helix"
	"pinot/internal/metrics"
	"pinot/internal/objstore"
	"pinot/internal/qcache"
	"pinot/internal/qctx"
	"pinot/internal/query"
	"pinot/internal/segment"
	"pinot/internal/startree"
	"pinot/internal/stream"
	"pinot/internal/table"
	"pinot/internal/tenancy"
	"pinot/internal/transport"
	"pinot/internal/zkmeta"
)

// Config tunes a server instance.
type Config struct {
	Cluster  string
	Instance string
	// AdvertiseAddr is the data-plane TCP address (host:port) this server
	// answers the framed query protocol on; registered in the instance
	// config so brokers can dial it.
	AdvertiseAddr string
	// DefaultTimeout bounds query execution when the request has none.
	DefaultTimeout time.Duration
	// PlanOptions tune physical planning (the Druid baseline overrides
	// these).
	PlanOptions query.Options
	// ConsumeBatch is the stream poll batch size.
	ConsumeBatch int
	// TenantTokens/TenantRefill configure per-tenant token buckets in
	// seconds of execution time; zero disables tenancy throttling.
	TenantTokens float64
	TenantRefill float64
	// AutoIndexThreshold enables query-log driven index creation (paper
	// 5.2): once a non-indexed column appears in this many query
	// filters, inverted indexes are built on the hosted segments. Zero
	// disables the feature.
	AutoIndexThreshold int
	// DisableServerCache turns off the server-side partial-aggregate cache
	// (per-segment merged aggregation state for immutable segments). The
	// cache is on by default; this is the A/B lever.
	DisableServerCache bool
	// ServerCacheBytes bounds the partial-aggregate cache (0 = the qcache
	// default).
	ServerCacheBytes int64
	// Metrics receives the server's instrumentation; nil means the
	// process-wide metrics.Default().
	Metrics *metrics.Registry
}

func (c *Config) withDefaults() {
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.ConsumeBatch <= 0 {
		c.ConsumeBatch = 1000
	}
}

// Server is one Pinot server instance.
type Server struct {
	cfg         Config
	store       zkmeta.Endpoint
	sess        *zkmeta.Kept // shared with the participant
	objects     objstore.Store
	streams     *stream.Cluster
	participant *helix.Participant
	engine      *query.Engine
	sched       *tenancy.Scheduler
	auto        *autoIndexer
	aggCache    *qcache.Cache
	met         *serverMetrics

	// The completion protocol's lead controller and the client in use for
	// it, dropped when a call to it fails (consumer.go).
	resolve func(instance string) (string, bool)
	pool    *transport.Pool
	leader  atomic.Pointer[transport.TCPControllerClient]

	mu     sync.RWMutex
	tables map[string]*tableDataManager

	// simulatedLatency is a failure-injection hook: when set, every
	// query on this server is delayed by this much, modelling the
	// stragglers that motivate large-cluster routing (paper 4.4).
	simulatedLatency atomic.Int64
}

// InjectLatency sets a per-query artificial delay (0 clears it). Testing
// and benchmarking hook for straggler simulation.
func (s *Server) InjectLatency(d time.Duration) { s.simulatedLatency.Store(int64(d)) }

// New creates a server.
func New(cfg Config, store zkmeta.Endpoint, objects objstore.Store, streams *stream.Cluster) *Server {
	cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		store:   store,
		objects: objects,
		streams: streams,
		tables:  map[string]*tableDataManager{},
		engine:  &query.Engine{Options: cfg.PlanOptions},
		met:     newServerMetrics(cfg.Metrics, cfg.Instance),
	}
	s.engine.OnOutcome = func(executed, cancelled, skipped int) {
		s.met.segExecuted.Add(int64(executed))
		s.met.segCancelled.Add(int64(cancelled))
		s.met.segSkipped.Add(int64(skipped))
	}
	if !cfg.DisableServerCache {
		s.aggCache = qcache.New(qcache.Config{
			Tier:     "aggregate",
			MaxBytes: cfg.ServerCacheBytes,
			Metrics:  cfg.Metrics,
		})
		s.engine.AggCache = s.aggCache
	}
	if cfg.TenantTokens > 0 {
		s.sched = tenancy.NewScheduler(cfg.TenantTokens, cfg.TenantRefill, nil)
		s.sched.SetMetrics(s.met.reg)
	}
	if cfg.AutoIndexThreshold > 0 {
		s.auto = newAutoIndexer(cfg.AutoIndexThreshold)
	}
	return s
}

// Instance returns the server's instance name.
func (s *Server) Instance() string { return s.cfg.Instance }

// Start registers the instance and joins the cluster as a Helix
// participant. It never fails: a session that cannot open yet is retried
// until one does.
func (s *Server) Start() error {
	s.participant = helix.NewParticipant(s.cfg.Cluster, s.cfg.Instance, s.handleTransition)
	s.pool = transport.NewPool()
	s.sess = zkmeta.Keep(s.store, s.onSession)
	// Resolved only after a failed call, so no answer is worth keeping.
	s.resolve = helix.NewAddrResolver(s.sess, s.cfg.Cluster, 0)
	s.participant.Start(s.sess)
	return nil
}

// onSession registers the instance over a new session, re-watches and
// re-reads each hosted table's config, then rejoins as a participant.
func (s *Server) onSession(sess zkmeta.Client) error {
	admin := helix.NewAdmin(sess, s.cfg.Cluster)
	if err := admin.CreateCluster(); err != nil {
		return err
	}
	if err := admin.RegisterInstance(helix.InstanceConfig{Instance: s.cfg.Instance, Tags: []string{"server"}, Addr: s.cfg.AdvertiseAddr}); err != nil {
		return err
	}
	s.mu.Lock()
	for _, t := range s.tables {
		_ = t.watchConfig(sess) // a dropped table's config is gone
	}
	s.mu.Unlock()
	return s.participant.Join(sess)
}

// Stop leaves the cluster and halts consumers. Closing its session ends its
// participant's loop, and a stopped server never rejoins.
func (s *Server) Stop() {
	s.sess.Close()
	s.mu.Lock()
	tables := make([]*tableDataManager, 0, len(s.tables))
	for _, t := range s.tables {
		tables = append(tables, t)
	}
	s.mu.Unlock()
	for _, t := range tables {
		t.stopAll()
	}
	s.pool.Close()
}

// Kill simulates a crash. Either endpoint drops a closed session as it drops
// an expired one, so a crash is a Stop.
func (s *Server) Kill() { s.Stop() }

func (s *Server) tableManager(resource string) (*tableDataManager, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tables[resource]; ok {
		return t, nil
	}
	t := &tableDataManager{
		server:    s,
		resource:  resource,
		segments:  map[string]query.IndexedSegment{},
		consuming: map[string]*consumer{},
	}
	if err := t.watchConfig(s.sess.Client()); err != nil {
		return nil, fmt.Errorf("server %s: no config for %s: %w", s.cfg.Instance, resource, err)
	}
	s.tables[resource] = t
	return t, nil
}

// watchConfig tracks on-the-fly config changes (schema evolution, index
// changes; paper 5.2) over sess: it watches the table's config, then reads
// it. The watch of an earlier session closed with it.
func (t *tableDataManager) watchConfig(sess zkmeta.Client) error {
	events, _ := sess.Watch(helix.PropertyStorePath(t.server.cfg.Cluster, "CONFIGS", "TABLE", t.resource))
	reload := func() error {
		cfg, err := controller.ReadTableConfig(sess, t.server.cfg.Cluster, t.resource)
		if err == nil {
			t.cfg.Store(cfg)
		}
		return err
	}
	err := reload() // before the watch's reloads, so an older read never lands last
	go func() {
		for range events {
			_ = reload()
		}
	}()
	return err
}

// handleTransition executes Helix state transitions (paper Figures 3 and 4).
func (s *Server) handleTransition(resource, partition, from, to string) error {
	s.met.transitions.With(s.cfg.Instance, to).Inc()
	t, err := s.tableManager(resource)
	if err != nil {
		return err
	}
	switch {
	case from == helix.StateOffline && to == helix.StateOnline:
		return t.loadFromStore(partition)
	case from == helix.StateOffline && to == helix.StateConsuming:
		return t.startConsuming(partition)
	case from == helix.StateConsuming && to == helix.StateOnline:
		return t.completeConsuming(partition)
	case to == helix.StateOffline:
		t.unload(partition)
		return nil
	case to == helix.StateDropped:
		t.drop(partition)
		return nil
	}
	return fmt.Errorf("server %s: unsupported transition %s→%s", s.cfg.Instance, from, to)
}

// ExecuteStream runs a query on this server's share of a resource's
// segments (paper 3.3.3 steps 4–6); it is the transport.StreamHandler the
// data plane serves. The engine folds the segments into one intermediate,
// handed once to emit as sequence 0, and the returned trailer carries the
// frame count (1), exceptions and the server-side trace. The emit callback
// is kept only because the benchmark harness wraps this signature to time
// the encode and write inside it.
func (s *Server) ExecuteStream(ctx context.Context, req *transport.QueryRequest, emit func(seq int, res *query.Intermediate) error) (trailer *transport.FinalFrame, err error) {
	s.met.queries.Inc()
	defer func() {
		if err != nil {
			s.met.failures.Inc()
		}
	}()
	q := req.Query
	s.mu.RLock()
	t, ok := s.tables[req.Resource]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("server %s: resource %s not hosted", s.cfg.Instance, req.Resource)
	}
	if hot := s.auto.observe(req.Resource, q); len(hot) > 0 {
		t.applyAutoIndexes(hot)
	}
	segs := t.segmentsFor(req.Segments)
	// Deadline budget: the server enforces the minimum of its own default,
	// the request's explicit timeout, and the broker's remaining budget
	// from the wire — never more than any of them.
	timeout := s.cfg.DefaultTimeout
	if d := time.Duration(req.TimeoutMillis) * time.Millisecond; req.TimeoutMillis > 0 && d < timeout {
		timeout = d
	}
	if d := time.Duration(req.BudgetMillis) * time.Millisecond; req.BudgetMillis > 0 && d < timeout {
		timeout = d
	}
	// The server mints its own QueryContext (a real deployment crosses a
	// network hop here), seeded with the query's wire identity and the
	// budget this hop will enforce.
	qc := qctx.New(req.QueryID, timeout)
	ctx = qctx.With(ctx, qc)
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	if d := time.Duration(s.simulatedLatency.Load()); d > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(d):
		}
	}
	trailer = &transport.FinalFrame{Frames: 1}
	// The usage metrics are the response's Stats, read before emit hands
	// the result to a consumer that may merge into it.
	var used query.Stats
	run := func() error {
		defer qc.Clock(qctx.PhaseExecute)()
		merged, exceptions, err := s.engine.Execute(ctx, q, segs, t.effectiveSchema())
		if err != nil {
			return err
		}
		used, trailer.Exceptions = merged.Stats, exceptions
		return emit(0, merged)
	}
	if s.sched != nil {
		tenant := req.Tenant
		if tenant == "" {
			tenant = "default"
		}
		var wait time.Duration
		wait, err = s.sched.Execute(ctx, tenant, run)
		qc.Charge(qctx.PhaseQueue, wait)
		s.met.queueWait.ObserveDuration(wait)
	} else {
		err = run()
	}
	if err != nil {
		return nil, err
	}
	s.met.docs.Add(used.NumDocsScanned)
	s.met.entries.Add(used.NumEntriesScanned)
	s.met.groupState.Observe(float64(used.GroupStateBytes))
	trailer.Trace = qc.TraceSnapshot()
	return trailer, nil
}

// invalidateSegmentCaches drops the partial aggregates scoped to a segment:
// the precise-invalidation hook run on every helix state transition that
// changes what the segment name resolves to.
func (s *Server) invalidateSegmentCaches(segName string) {
	if s.aggCache != nil {
		s.aggCache.InvalidateScope(segName)
	}
}

// AggCache exposes the server's partial-aggregate cache (nil when disabled);
// tests and benchmarks reach it for direct assertions.
func (s *Server) AggCache() *qcache.Cache { return s.aggCache }

// HostedSegments returns the names of segments currently queryable for a
// resource (loaded immutable + consuming).
func (s *Server) HostedSegments(resource string) []string {
	s.mu.RLock()
	t, ok := s.tables[resource]
	s.mu.RUnlock()
	if !ok {
		return nil
	}
	return t.hostedNames()
}

// tableDataManager holds one resource's segments on a server.
type tableDataManager struct {
	server   *Server
	resource string
	cfg      atomic.Pointer[table.Config] // watched over the session that read it

	mu        sync.RWMutex
	segments  map[string]query.IndexedSegment
	consuming map[string]*consumer
}

// effectiveSchema is the table-level schema queries plan against: the base
// schema plus derived-column fields, so segments that predate a derived
// column serve its default value via schema evolution.
func (t *tableDataManager) effectiveSchema() *segment.Schema {
	cfg := t.cfg.Load()
	eff, err := cfg.EffectiveSchema()
	if err != nil {
		// The config validated at creation; an error here means a bad
		// live edit — serve the base schema rather than fail queries.
		return cfg.Schema
	}
	return eff
}

func (t *tableDataManager) hostedNames() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []string
	for name := range t.segments {
		out = append(out, name)
	}
	for name := range t.consuming {
		out = append(out, name)
	}
	return out
}

// segmentsFor resolves requested segment names (nil = all hosted) to
// executable segments, including in-progress consuming segments, each as the
// one snapshot the query reads it through.
func (t *tableDataManager) segmentsFor(names []string) []query.IndexedSegment {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if names == nil {
		out := make([]query.IndexedSegment, 0, len(t.segments)+len(t.consuming))
		for _, is := range t.segments {
			out = append(out, is)
		}
		for _, c := range t.consuming {
			out = append(out, query.IndexedSegment{Seg: c.seg.Snapshot()})
		}
		return out
	}
	out := make([]query.IndexedSegment, 0, len(names))
	for _, n := range names {
		if is, ok := t.segments[n]; ok {
			out = append(out, is)
			continue
		}
		if c, ok := t.consuming[n]; ok {
			out = append(out, query.IndexedSegment{Seg: c.seg.Snapshot()})
		}
	}
	return out
}

// loadFromStore fetches a segment blob and makes it queryable (paper Figure
// 4: fetch from the object store, unpack, load). The segment is served from
// the fetched bytes as they are, so they are first held to the checksum the
// controller recorded when it accepted them; a blob that fails it, or fails
// to load, is refused — the replica goes to ERROR and the others keep serving.
func (t *tableDataManager) loadFromStore(segName string) error {
	refuse := func(reason string, err error) error {
		t.server.met.loadFailures.With(t.server.cfg.Instance, t.resource, reason).Inc()
		err = fmt.Errorf("server %s: segment %s refused (%s): %w", t.server.cfg.Instance, segName, reason, err)
		log.Print(err)
		return err
	}
	meta, err := controller.ReadSegmentMeta(t.server.sess.Client(), t.server.cfg.Cluster, t.resource, segName)
	if err != nil {
		return refuse("metadata", err)
	}
	blob, err := t.server.objects.Get(meta.ObjectKey)
	if err != nil {
		return refuse("fetch", err)
	}
	if crc := crc32.ChecksumIEEE(blob); crc != meta.CRC {
		return refuse("checksum", fmt.Errorf("blob %s has CRC %08x, its metadata records %08x", meta.ObjectKey, crc, meta.CRC))
	}
	seg, err := segment.Unmarshal(blob)
	if err != nil {
		return refuse("corrupt", err)
	}
	if err := t.install(seg); err != nil {
		return refuse("corrupt", err)
	}
	return nil
}

func (t *tableDataManager) install(seg *segment.Segment) error {
	tree, err := startree.Load(seg)
	if err != nil {
		return fmt.Errorf("server %s: segment %s star tree corrupt: %w", t.server.cfg.Instance, seg.Name(), err)
	}
	is := query.IndexedSegment{Seg: seg, Tree: tree}
	// One critical section for both maps: on CONSUMING→ONLINE the sealed
	// copy replaces the (already halted) consuming one with no moment at
	// which a query finds the segment in neither.
	t.mu.Lock()
	delete(t.consuming, seg.Name())
	t.segments[seg.Name()] = is
	t.mu.Unlock()
	// A (re)installed segment may carry different contents under the same
	// name (segment replace/reload): stale partial aggregates must go.
	t.server.invalidateSegmentCaches(seg.Name())
	return nil
}

func (t *tableDataManager) unload(segName string) {
	t.mu.Lock()
	c := t.consuming[segName]
	delete(t.segments, segName)
	delete(t.consuming, segName)
	t.mu.Unlock()
	if c != nil {
		c.halt()
	}
	t.server.invalidateSegmentCaches(segName)
}

func (t *tableDataManager) drop(segName string) {
	t.unload(segName)
}

func (t *tableDataManager) stopAll() {
	t.mu.Lock()
	consumers := make([]*consumer, 0, len(t.consuming))
	for _, c := range t.consuming {
		consumers = append(consumers, c)
	}
	t.mu.Unlock()
	for _, c := range consumers {
		c.halt()
	}
}

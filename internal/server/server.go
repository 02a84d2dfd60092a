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
	"pinot/internal/pql"
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
	// Tags beyond the implicit "server" tag (tenant tags).
	Tags []string
	// AdvertiseAddr is the data-plane TCP address (host:port) this server
	// answers the framed query protocol on; registered in the instance
	// config so brokers can dial it. Empty for in-process clusters.
	AdvertiseAddr string
	// Parallelism bounds concurrent per-segment plans per query.
	Parallelism int
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
	sess        zkmeta.Client
	objects     objstore.Store
	streams     *stream.Cluster
	controllers func() []transport.ControllerClient
	participant *helix.Participant
	engine      *query.Engine
	sched       *tenancy.Scheduler
	auto        *autoIndexer
	aggCache    *qcache.Cache
	dictCache   *qcache.Cache
	met         *serverMetrics

	mu     sync.RWMutex
	tables map[string]*tableDataManager

	// simulatedLatency is a failure-injection hook: when set, every
	// query on this server is delayed by this much, modelling the
	// stragglers that motivate large-cluster routing (paper 4.4).
	simulatedLatency atomic.Int64

	// completionActions counts the completion-protocol instructions this
	// server has received, for observability and tests.
	completionMu      sync.Mutex
	completionActions map[transport.SegmentConsumedAction]int64
}

// CompletionActionCounts returns how many times each completion-protocol
// instruction (HOLD, CATCHUP, COMMIT, ...) this server has received.
func (s *Server) CompletionActionCounts() map[transport.SegmentConsumedAction]int64 {
	s.completionMu.Lock()
	defer s.completionMu.Unlock()
	out := make(map[transport.SegmentConsumedAction]int64, len(s.completionActions))
	for k, v := range s.completionActions {
		out[k] = v
	}
	return out
}

func (s *Server) recordCompletionAction(a transport.SegmentConsumedAction) {
	s.completionMu.Lock()
	if s.completionActions == nil {
		s.completionActions = map[transport.SegmentConsumedAction]int64{}
	}
	s.completionActions[a]++
	s.completionMu.Unlock()
	s.met.completion.With(s.cfg.Instance, string(a)).Inc()
}

// InjectLatency sets a per-query artificial delay (0 clears it). Testing
// and benchmarking hook for straggler simulation.
func (s *Server) InjectLatency(d time.Duration) { s.simulatedLatency.Store(int64(d)) }

// New creates a server. controllers resolves the current controller clients
// for the segment completion protocol (tried in order until one is leader).
func New(cfg Config, store zkmeta.Endpoint, objects objstore.Store, streams *stream.Cluster, controllers func() []transport.ControllerClient) *Server {
	cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		store:       store,
		objects:     objects,
		streams:     streams,
		controllers: controllers,
		tables:      map[string]*tableDataManager{},
		engine:      &query.Engine{Parallelism: cfg.Parallelism, Options: cfg.PlanOptions},
		met:         newServerMetrics(cfg.Metrics, cfg.Instance),
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
	s.dictCache = qcache.New(qcache.Config{Tier: "dictexpr", Metrics: cfg.Metrics})
	s.engine.Options.DictMemoCache = s.dictCache
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
// participant.
func (s *Server) Start() error {
	s.sess = s.store.NewClient()
	admin := helix.NewAdmin(s.sess, s.cfg.Cluster)
	if err := admin.CreateCluster(); err != nil {
		return err
	}
	tags := append([]string{"server"}, s.cfg.Tags...)
	if err := admin.RegisterInstance(helix.InstanceConfig{Instance: s.cfg.Instance, Tags: tags, Addr: s.cfg.AdvertiseAddr}); err != nil {
		return err
	}
	s.participant = helix.NewParticipant(s.store, s.cfg.Cluster, s.cfg.Instance, s.handleTransition)
	return s.participant.Start()
}

// Stop leaves the cluster and halts consumers.
func (s *Server) Stop() {
	if s.participant != nil {
		s.participant.Stop()
	}
	s.mu.Lock()
	tables := make([]*tableDataManager, 0, len(s.tables))
	for _, t := range s.tables {
		tables = append(tables, t)
	}
	s.mu.Unlock()
	for _, t := range tables {
		t.stopAll()
	}
	if s.sess != nil {
		s.sess.Close()
	}
}

// Kill simulates a crash (ungraceful session expiry).
func (s *Server) Kill() {
	if s.participant != nil {
		s.participant.Kill()
	}
	s.mu.Lock()
	tables := make([]*tableDataManager, 0, len(s.tables))
	for _, t := range s.tables {
		tables = append(tables, t)
	}
	s.mu.Unlock()
	for _, t := range tables {
		t.stopAll()
	}
	if s.sess != nil {
		s.sess.Expire()
	}
}

func (s *Server) tableManager(resource string) (*tableDataManager, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tables[resource]; ok {
		return t, nil
	}
	cfg, err := controller.ReadTableConfig(s.sess, s.cfg.Cluster, resource)
	if err != nil {
		return nil, fmt.Errorf("server %s: no config for %s: %w", s.cfg.Instance, resource, err)
	}
	t := &tableDataManager{
		server:    s,
		resource:  resource,
		segments:  map[string]query.IndexedSegment{},
		consuming: map[string]*consumer{},
	}
	t.cfg.Store(cfg)
	// Track on-the-fly config changes (schema evolution, index changes;
	// paper 5.2) via a watch on the stored table config.
	events, cancel := s.sess.Watch(helix.PropertyStorePath(s.cfg.Cluster, "CONFIGS", "TABLE", resource))
	t.cfgCancel = cancel
	go func() {
		for range events {
			if fresh, err := controller.ReadTableConfig(s.sess, s.cfg.Cluster, resource); err == nil {
				t.cfg.Store(fresh)
			}
		}
	}()
	s.tables[resource] = t
	return t, nil
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

// Execute runs a query on this server's share of a resource's segments
// (paper 3.3.3 steps 4–6). It is the buffered shape of ExecuteStream: the
// per-segment intermediates are folded into one response locally, exactly
// as a remote stream consumer would fold them.
func (s *Server) Execute(ctx context.Context, req *transport.QueryRequest) (*transport.QueryResponse, error) {
	m := transport.NewStreamMerger()
	trailer, err := s.ExecuteStream(ctx, req, func(seq int, res *query.Intermediate) error {
		return m.Add(&transport.SegmentFrame{Seq: seq, Result: res})
	})
	if err != nil {
		return nil, err
	}
	merged, err := m.Finish(trailer)
	if err != nil {
		return nil, err
	}
	return &transport.QueryResponse{Result: merged, Exceptions: trailer.Exceptions, Trace: trailer.Trace}, nil
}

// ExecuteStream is the streaming query path shared by the in-memory and TCP
// transports (it implements transport.StreamHandler): per-segment
// intermediates go to emit in sequence order the moment they are ready, and
// the returned trailer carries the frame count, exceptions, trailer stats
// and the server-side trace.
func (s *Server) ExecuteStream(ctx context.Context, req *transport.QueryRequest, emit func(seq int, res *query.Intermediate) error) (trailer *transport.FinalFrame, err error) {
	s.met.queries.Inc()
	defer func() {
		if err != nil {
			s.met.failures.Inc()
		}
	}()
	q, err := pql.Parse(req.PQL)
	if err != nil {
		return nil, err
	}
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
	// from the wire — never more than any of them. An inbound context
	// deadline (in-process transport) is folded in by WithTimeout, which
	// keeps the earlier of the two.
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
	trailer = &transport.FinalFrame{}
	run := func() error {
		stop := qc.Clock(qctx.PhaseExecute)
		emitted := 0
		stats, exceptions, err := s.engine.ExecuteStream(ctx, q, segs, t.effectiveSchema(), func(seq int, res *query.Intermediate) error {
			emitted++
			return emit(seq, res)
		})
		stop()
		if err != nil {
			return err
		}
		trailer.Frames = emitted
		trailer.Exceptions = exceptions
		trailer.Stats = stats
		return nil
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
	usage := qc.UsageSnapshot()
	s.met.docs.Add(usage.DocsScanned)
	s.met.entries.Add(usage.EntriesScanned)
	s.met.groupState.Observe(float64(usage.GroupStateBytes))
	trailer.Trace = qc.TraceSnapshot()
	return trailer, nil
}

// invalidateSegmentCaches drops the per-segment cache entries — partial
// aggregates and dictionary-expression memos — scoped to a segment: the
// precise-invalidation hook run on every helix state transition that
// changes what the segment name resolves to.
func (s *Server) invalidateSegmentCaches(segName string) {
	if s.aggCache != nil {
		s.aggCache.InvalidateScope(segName)
	}
	s.dictCache.InvalidateScope(segName)
}

// AggCache exposes the server's partial-aggregate cache (nil when disabled);
// tests and benchmarks reach it for direct assertions.
func (s *Server) AggCache() *qcache.Cache { return s.aggCache }

// DictExprCache exposes the server's dictionary-expression memo cache; tests
// and benchmarks reach it for direct assertions.
func (s *Server) DictExprCache() *qcache.Cache { return s.dictCache }

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
	server    *Server
	resource  string
	cfg       atomic.Pointer[table.Config]
	cfgCancel func()

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
	meta, err := controller.ReadSegmentMeta(t.server.sess, t.server.cfg.Cluster, t.resource, segName)
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
	// name (segment replace/reload): stale partial aggregates and
	// expression memos must go.
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
	if t.cfgCancel != nil {
		t.cfgCancel()
	}
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

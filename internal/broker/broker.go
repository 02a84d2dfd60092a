package broker

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"pinot/internal/controller"
	"pinot/internal/helix"
	"pinot/internal/metrics"
	"pinot/internal/pql"
	"pinot/internal/qcache"
	"pinot/internal/qctx"
	"pinot/internal/query"
	"pinot/internal/stream"
	"pinot/internal/table"
	"pinot/internal/transport"
	"pinot/internal/zkmeta"
)

// Config tunes a broker instance.
type Config struct {
	Cluster  string
	Instance string
	Strategy Strategy
	// TargetServers is T of Algorithm 1 (largeCluster strategy).
	TargetServers int
	// PartitionAware routes single-partition queries only to servers
	// holding the relevant partition's segments (paper Figure 16).
	PartitionAware bool
	// QueryTimeout bounds end-to-end query execution. Each server attempt
	// gets an equal share of it (see perServerTimeout).
	QueryTimeout time.Duration
	// HedgeDelay, when positive, sends a duplicate request to another
	// replica if a server has not answered within the delay, taking
	// whichever response arrives first (tail-latency hedging). 0 disables
	// hedging.
	HedgeDelay time.Duration
	// Seed fixes the routing RNG for reproducible tests (0 = random).
	Seed int64
	// DisableResultCache turns off the broker-side result cache (the A/B
	// lever for benchmarking; the cache is ON by default). Cached entries
	// are keyed on the canonical PQL, tenant and routing version vector,
	// and invalidated precisely — never by TTL.
	DisableResultCache bool
	// ResultCacheBytes bounds the result cache's resident size
	// (0 = qcache.DefaultMaxBytes).
	ResultCacheBytes int64
	// Metrics receives the broker's instrumentation; nil means the
	// process-wide metrics.Default().
	Metrics *metrics.Registry
}

func (c *Config) withDefaults() {
	if c.Strategy == "" {
		c.Strategy = StrategyBalanced
	}
	if c.TargetServers <= 0 {
		c.TargetServers = 3
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 10 * time.Second
	}
}

// The fixed scatter policy. routingTables is C of Algorithm 2: how many
// routing tables the large-cluster strategy keeps. A failed scatter group is
// retried maxRetries times against alternate replicas of its segments, after
// retryBackoff. Each server attempt is bounded by an equal share of the query
// timeout, so a hung server leaves time for the retry.
const (
	routingTables = 8
	maxRetries    = 1
	retryBackoff  = 2 * time.Millisecond
)

// perServerTimeout is the deadline of one server attempt.
func (c *Config) perServerTimeout() time.Duration {
	return c.QueryTimeout / (maxRetries + 1)
}

// Broker routes queries to servers and merges their partial results.
type Broker struct {
	cfg      Config
	store    zkmeta.Endpoint
	sess     zkmeta.Client
	registry transport.Registry
	met      *brokerMetrics
	slow     *metrics.SlowLog
	// badPQL retains the most recent rejected queries (parse failures)
	// for /debug/queries, so a misbehaving client can be diagnosed from
	// the broker without log access.
	badMu  sync.Mutex
	badPQL []ParseFailure
	// resultCache is the broker tier of the multi-tier cache: merged
	// immutable-portion results keyed on (canonical PQL, tenant, routing
	// version), scoped per resource. Nil when disabled.
	resultCache *qcache.Cache

	rndMu sync.Mutex
	rnd   *rand.Rand

	mu           sync.Mutex
	routing      map[string]*routingState // resource → routing
	routingEpoch int                      // bumped by every invalidation
	configs      map[string]*table.Config // resource → config cache
	watching     map[string]func()        // resource → external-view watch cancel
	cfgWatching  map[string]func()        // resource → table-config watch cancel
	evCancel     func()
}

// New creates a broker. The registry resolves server instances to query
// clients.
func New(cfg Config, store zkmeta.Endpoint, registry transport.Registry) *Broker {
	cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	b := &Broker{
		cfg:         cfg,
		store:       store,
		registry:    registry,
		met:         newBrokerMetrics(cfg.Metrics),
		slow:        metrics.NewSlowLog(0),
		rnd:         rand.New(rand.NewSource(seed)),
		routing:     map[string]*routingState{},
		configs:     map[string]*table.Config{},
		watching:    map[string]func(){},
		cfgWatching: map[string]func(){},
	}
	if !cfg.DisableResultCache {
		b.resultCache = qcache.New(qcache.Config{
			Tier:     "result",
			MaxBytes: cfg.ResultCacheBytes,
			Metrics:  b.met.reg,
		})
	}
	return b
}

// Instance returns the broker's instance name.
func (b *Broker) Instance() string { return b.cfg.Instance }

// Metrics returns the registry this broker records into.
func (b *Broker) Metrics() *metrics.Registry { return b.met.reg }

// SlowQueries returns the slow-query log served at /debug/queries.
func (b *Broker) SlowQueries() *metrics.SlowLog { return b.slow }

// ParseFailure is one rejected query retained for /debug/queries: the text,
// the error, and — when the failure was a parse error — the position.
type ParseFailure struct {
	PQL   string `json:"pql"`
	Error string `json:"error"`
	// Line/Col/Offset locate the failure in the query text (1-based
	// line/col, byte offset); zero when the failure carried no position.
	Line   int    `json:"line,omitempty"`
	Col    int    `json:"col,omitempty"`
	Offset int    `json:"offset,omitempty"`
	Token  string `json:"token,omitempty"` // offending token, "" at end of input
}

// maxParseFailures bounds the rejected-query ring.
const maxParseFailures = 32

func (b *Broker) recordParseFailure(pqlText string, err error) {
	f := ParseFailure{PQL: pqlText, Error: err.Error()}
	var pe *pql.ParseError
	if errors.As(err, &pe) {
		f.Line, f.Col, f.Offset, f.Token = pe.Line, pe.Col, pe.Offset, pe.Token
	}
	b.badMu.Lock()
	b.badPQL = append(b.badPQL, f)
	if len(b.badPQL) > maxParseFailures {
		b.badPQL = b.badPQL[len(b.badPQL)-maxParseFailures:]
	}
	b.badMu.Unlock()
}

// ParseFailures returns the retained rejected queries, oldest first.
func (b *Broker) ParseFailures() []ParseFailure {
	b.badMu.Lock()
	defer b.badMu.Unlock()
	return append([]ParseFailure(nil), b.badPQL...)
}

// Start joins the cluster as a spectator: it registers its config and
// subscribes to external-view changes to keep routing tables fresh (paper
// 3.3.2).
func (b *Broker) Start() error {
	b.sess = b.store.NewClient()
	admin := helix.NewAdmin(b.sess, b.cfg.Cluster)
	if err := admin.CreateCluster(); err != nil {
		return err
	}
	if err := admin.RegisterInstance(helix.InstanceConfig{Instance: b.cfg.Instance, Tags: []string{"broker"}}); err != nil {
		return err
	}
	events, cancel := b.sess.WatchChildren(helix.ExternalViewsPath(b.cfg.Cluster))
	b.evCancel = cancel
	go func() {
		for range events {
			b.invalidateAll()
		}
	}()
	return nil
}

// Stop leaves the cluster.
func (b *Broker) Stop() {
	b.mu.Lock()
	if b.evCancel != nil {
		b.evCancel()
		b.evCancel = nil
	}
	for _, cancel := range b.watching {
		cancel()
	}
	b.watching = map[string]func(){}
	for _, cancel := range b.cfgWatching {
		cancel()
	}
	b.cfgWatching = map[string]func(){}
	b.mu.Unlock()
	if b.sess != nil {
		b.sess.Close()
	}
}

func (b *Broker) invalidateAll() {
	b.mu.Lock()
	b.routing = map[string]*routingState{}
	b.routingEpoch++
	b.mu.Unlock()
	if b.resultCache != nil {
		b.resultCache.InvalidateAll()
	}
}

func (b *Broker) invalidate(resource string) {
	b.mu.Lock()
	delete(b.routing, resource)
	b.routingEpoch++
	b.mu.Unlock()
	// The version-vector key already makes the dropped routing state's
	// entries unreachable; the eager scope invalidation reclaims their
	// memory and keeps the invalidation counters exact (once per entry —
	// a second watch firing finds the scope empty and counts nothing).
	if b.resultCache != nil {
		b.resultCache.InvalidateScope(resource)
	}
}

// ResultCache exposes the broker result-cache tier (nil when disabled);
// tests and the HTTP debug surface read its occupancy.
func (b *Broker) ResultCache() *qcache.Cache { return b.resultCache }

func (b *Broker) randIntn(n int) int {
	b.rndMu.Lock()
	defer b.rndMu.Unlock()
	return b.rnd.Intn(n)
}

// tableConfig reads (and caches) a resource's config; a miss means the
// resource does not exist.
func (b *Broker) tableConfig(resource string) (*table.Config, bool) {
	b.mu.Lock()
	if cfg, ok := b.configs[resource]; ok {
		b.mu.Unlock()
		return cfg, true
	}
	b.mu.Unlock()
	cfg, err := controller.ReadTableConfig(b.sess, b.cfg.Cluster, resource)
	if err != nil {
		return nil, false
	}
	b.mu.Lock()
	b.configs[resource] = cfg
	// Track config changes (schema evolution, paper 5.2) so the cache
	// never serves a stale schema.
	if _, ok := b.cfgWatching[resource]; !ok {
		events, cancel := b.sess.Watch(helix.PropertyStorePath(b.cfg.Cluster, "CONFIGS", "TABLE", resource))
		b.cfgWatching[resource] = cancel
		go func() {
			for range events {
				b.mu.Lock()
				delete(b.configs, resource)
				b.mu.Unlock()
			}
		}()
	}
	b.mu.Unlock()
	return cfg, true
}

// routingFor returns (building if needed) the routing state of a resource.
func (b *Broker) routingFor(resource string) (*routingState, error) {
	b.mu.Lock()
	rs, ok := b.routing[resource]
	epoch := b.routingEpoch
	// Watch before reading, so an external-view update that lands while
	// this routing state is being built is seen (paper 3.3.2: "brokers
	// listen to changes to the cluster state and update their routing
	// tables").
	if _, watching := b.watching[resource]; !ok && !watching {
		events, cancel := b.sess.Watch(helix.ExternalViewPath(b.cfg.Cluster, resource))
		b.watching[resource] = cancel
		go func() {
			for range events {
				b.invalidate(resource)
			}
		}()
	}
	b.mu.Unlock()
	if ok {
		return rs, nil
	}
	// Read the external view data and its store version in ONE Get: the
	// version seeds the result-cache key, so reading it separately from
	// the data would open a window where routing reflects one view and
	// cache keys another (a stale hit surviving its invalidation).
	data, ver, err := b.sess.Get(helix.ExternalViewPath(b.cfg.Cluster, resource))
	ev := &helix.ExternalView{Resource: resource, Partitions: map[string]map[string]string{}}
	switch {
	case err == zkmeta.ErrNoNode:
		// No external view yet: an empty routing state.
	case err != nil:
		return nil, err
	default:
		if err := json.Unmarshal(data, ev); err != nil {
			return nil, err
		}
		if ev.Partitions == nil {
			ev.Partitions = map[string]map[string]string{}
		}
	}
	si := segmentInstances{}
	consuming := map[string]bool{}
	for seg, replicas := range ev.Partitions {
		for inst, state := range replicas {
			// Both fully online replicas and consuming replicas
			// participate in query processing.
			if state == helix.StateOnline || state == helix.StateConsuming {
				si[seg] = append(si[seg], inst)
			}
			if state == helix.StateConsuming {
				consuming[seg] = true
			}
		}
	}
	rs = &routingState{segments: si, consuming: consuming, segPartition: map[string]int{}, segMeta: map[string]*table.SegmentMeta{}}
	b.rndMu.Lock()
	switch b.cfg.Strategy {
	case StrategyLargeCluster:
		// Algorithm 2 generates G = 10·C candidate tables and keeps the C best.
		tables, err := filterRoutingTables(si, b.cfg.TargetServers, routingTables, 10*routingTables, b.rnd)
		if err == nil {
			rs.tables = tables
		}
	default:
		rt, err := generateBalanced(si, b.rnd)
		if err == nil {
			rs.tables = []RoutingTable{rt}
		}
	}
	b.rndMu.Unlock()
	if len(rs.tables) == 0 && len(si) > 0 {
		return nil, fmt.Errorf("broker: could not build routing table for %s", resource)
	}
	// Segment metadata cache: partition map for partition-aware routing,
	// time ranges and doc counts for broker-side pruning.
	if metas, err := controller.ReadSegmentMetas(b.sess, b.cfg.Cluster, resource); err == nil {
		for _, m := range metas {
			rs.segPartition[m.Name] = m.Partition
			rs.segMeta[m.Name] = m
		}
	}
	rs.version = routingVersion(ver, ev, rs.segMeta)
	// Keep the state only if no invalidation ran while it was being built;
	// otherwise it answers this query and the next one rebuilds.
	b.mu.Lock()
	if b.routingEpoch == epoch {
		b.routing[resource] = rs
	}
	b.mu.Unlock()
	return rs, nil
}

// timeBoundary computes the hybrid split point: the max time of the offline
// table's completed segments. Offline serves time < boundary, realtime
// serves time >= boundary (paper Figure 6).
func (b *Broker) timeBoundary(offlineResource string) (int64, bool) {
	metas, err := controller.ReadSegmentMetas(b.sess, b.cfg.Cluster, offlineResource)
	if err != nil || len(metas) == 0 {
		return 0, false
	}
	var max int64
	found := false
	for _, m := range metas {
		if m.Status == table.StatusDone {
			if !found || m.MaxTime > max {
				max = m.MaxTime
			}
			found = true
		}
	}
	return max, found
}

// ServerException records one server-level failure observed during
// scatter/gather. Recovered failures were masked by a retry or hedged
// request and did not affect the result; unrecovered ones mark it partial.
type ServerException struct {
	Server    string
	Error     string
	Recovered bool
}

// Response is the broker's reply to a client.
type Response struct {
	*query.Result
	// ServersQueried counts the scatter groups fanned out across
	// subqueries (paper 3.3.3 step 7's "servers queried").
	ServersQueried int
	// ServersResponded counts the groups that produced a result, possibly
	// via an alternate replica after the primary failed. The result is
	// complete iff ServersResponded == ServersQueried and there are no
	// carried exceptions.
	ServersResponded int
	// ServerExceptions details every per-server failure, including those
	// recovered by retries or hedging.
	ServerExceptions []ServerException
}

// Execute parses PQL, performs hybrid rewriting, scatters the query and
// gathers the merged result (paper 3.3.3). The query's whole lifecycle runs
// against one QueryContext: parsing and routing are charged against the
// deadline budget before the fan-out, each server call carries the budget
// still remaining at send time, and the per-phase ledger is returned to the
// client as the response trace.
func (b *Broker) Execute(ctx context.Context, pqlText, tenant string) (resp *Response, err error) {
	qc := qctx.New("", b.cfg.QueryTimeout)
	ctx = qctx.With(ctx, qc)
	start := qc.StartTime()
	stop := qc.Clock(qctx.PhaseParse)
	q, err := pql.Parse(pqlText)
	stop()
	if err != nil {
		b.met.badRequests.Inc()
		b.recordParseFailure(pqlText, err)
		return nil, err
	}
	stopRoute := qc.Clock(qctx.PhaseRoute)
	offline := table.ResourceName(q.Table, table.Offline)
	realtime := table.ResourceName(q.Table, table.Realtime)
	offCfg, hasOffline := b.tableConfig(offline)
	rtCfg, hasRealtime := b.tableConfig(realtime)
	if !hasOffline && !hasRealtime {
		stopRoute()
		b.met.badRequests.Inc()
		return nil, fmt.Errorf("broker: unknown table %q", q.Table)
	}
	b.met.requests.Inc()
	b.met.queries.With(q.Table).Inc()
	// Failures past this point have a table to charge them to.
	defer func() {
		if err != nil {
			b.met.failures.With(q.Table).Inc()
		}
	}()

	type subquery struct {
		resource string
		cfg      *table.Config
		q        *pql.Query
	}
	var subs []subquery
	switch {
	case hasOffline && hasRealtime:
		// Hybrid rewrite around the time boundary (paper Figure 6).
		timeCol := offCfg.Schema.TimeColumn()
		boundary, ok := b.timeBoundary(offline)
		if ok && timeCol != "" {
			offQ := q.WithExtraFilter(pql.Comparison{Column: timeCol, Op: pql.OpLt, Value: boundary})
			rtQ := q.WithExtraFilter(pql.Comparison{Column: timeCol, Op: pql.OpGte, Value: boundary})
			subs = append(subs, subquery{offline, offCfg, offQ}, subquery{realtime, rtCfg, rtQ})
		} else {
			// No boundary to split on (no completed offline data, or
			// no shared time column): query both sides unrewritten.
			// The time column requirement of paper 3.3.3 is what
			// prevents double counting; without it, deduplication is
			// the operator's responsibility.
			subs = append(subs, subquery{offline, offCfg, q}, subquery{realtime, rtCfg, q})
		}
	case hasOffline:
		subs = append(subs, subquery{offline, offCfg, q})
	default:
		subs = append(subs, subquery{realtime, rtCfg, q})
	}
	stopRoute()

	ctx, cancel := context.WithTimeout(ctx, b.cfg.QueryTimeout)
	defer cancel()

	var merged *query.Intermediate
	var exceptions []string
	var srvExcs []ServerException
	var prunedStats query.Stats
	queried, responded := 0, 0
	for _, sub := range subs {
		out, err := b.scatterGather(ctx, qc, sub.resource, sub.cfg, sub.q, tenant)
		if err != nil {
			return nil, err
		}
		queried += out.queried
		responded += out.responded
		prunedStats.Merge(out.pruned)
		exceptions = append(exceptions, out.respExcs...)
		srvExcs = append(srvExcs, out.srvExcs...)
		if merged == nil {
			merged = out.result
			continue
		}
		if out.result != nil {
			stopMerge := qc.Clock(qctx.PhaseMerge)
			err := merged.Merge(out.result)
			stopMerge()
			if err != nil {
				return nil, err
			}
		}
	}
	// Unrecovered server failures surface as client-visible exceptions;
	// failures masked by a retry or hedge stay in ServerExceptions only.
	for _, e := range srvExcs {
		if !e.Recovered {
			exceptions = append(exceptions, fmt.Sprintf("server %s: %s", e.Server, e.Error))
		}
	}
	if merged == nil {
		if len(exceptions) == 0 && responded == queried && prunedStats.SegmentsPrunedByBroker == 0 {
			return nil, fmt.Errorf("broker: no servers produced results")
		}
		// Every server failed — or every segment was pruned before the
		// scatter: degrade to an empty (for pruning: complete and exact)
		// result rather than failing the query.
		schema := subs[0].cfg.Schema
		if eff, err := subs[0].cfg.EffectiveSchema(); err == nil {
			schema = eff
		}
		merged = query.EmptyIntermediate(q, schema)
	}
	merged.Stats.Merge(prunedStats)
	stop = qc.Clock(qctx.PhaseReduce)
	final := merged.Finalize(q)
	stop()
	final.Exceptions = exceptions
	final.Partial = len(exceptions) > 0 || responded < queried
	final.TimeMillis = time.Since(start).Milliseconds()
	final.QueryID = qc.ID()
	final.Trace = qc.TraceSnapshot()

	elapsed := time.Since(start)
	b.met.latency.With(q.Table).ObserveDuration(elapsed)
	b.met.fanout.Observe(float64(queried))
	if n := prunedStats.SegmentsPrunedByBroker; n > 0 {
		b.met.pruned.With(q.Table).Add(int64(n))
	}
	if final.Partial {
		b.met.partials.With(q.Table).Inc()
	}
	for _, e := range srvExcs {
		b.met.exceptions.With(fmt.Sprintf("%t", e.Recovered)).Inc()
	}
	phases := make(map[string]int64, len(final.Trace))
	for p, d := range final.Trace {
		phases[string(p)] = metrics.DurationToUs(d)
	}
	b.slow.Record(metrics.SlowQuery{
		QueryID:     final.QueryID,
		Table:       q.Table,
		PQL:         pqlText,
		TimeMillis:  final.TimeMillis,
		LatencyUs:   metrics.DurationToUs(elapsed),
		Partial:     final.Partial,
		PhaseTraces: phases,
	})
	return &Response{
		Result:           final,
		ServersQueried:   queried,
		ServersResponded: responded,
		ServerExceptions: srvExcs,
	}, nil
}

// gatherResult is the outcome of scattering one subquery.
type gatherResult struct {
	result    *query.Intermediate
	respExcs  []string          // exceptions carried inside successful responses
	srvExcs   []ServerException // transport/server-level failures
	queried   int               // scatter groups fanned out
	responded int               // groups that produced a full result
	// pruned accounts for segments the broker dropped before the scatter:
	// SegmentsPrunedByBroker for every drop, plus NumSegmentsQueried and
	// TotalDocs for time-range drops (those segments would have been
	// dispatched — and counted — with pruning off, so parity demands it).
	pruned query.Stats
}

// groupResult is the outcome of one scatter group (a server and its assigned
// segments), after retries and hedging.
type groupResult struct {
	result    *query.Intermediate
	responded bool
	respExcs  []string
	excs      []ServerException
	err       error // fatal merge error, aborts the query
}

// scatterGather sends one rewritten subquery to the servers of a resource
// and merges their partial results. Each scatter group gets its own deadline
// carved from the query budget; failed groups are retried against alternate
// replicas of their segments, and stragglers optionally race a hedged
// duplicate (paper 3.3.3 steps 3-7).
func (b *Broker) scatterGather(ctx context.Context, qc *qctx.QueryContext, resource string, cfg *table.Config, q *pql.Query, tenant string) (gatherResult, error) {
	var out gatherResult
	stopRoute := qc.Clock(qctx.PhaseRoute)
	rs, err := b.routingFor(resource)
	if err != nil {
		stopRoute()
		return out, err
	}
	var rt RoutingTable
	b.rndMu.Lock()
	rt = rs.pick(b.rnd)
	b.rndMu.Unlock()
	if rt == nil {
		// Resource exists but has no queryable segments yet.
		stopRoute()
		return out, nil
	}
	// Partition-aware pruning (paper 4.4): a single-partition query only
	// contacts servers holding that partition's segments.
	if b.cfg.PartitionAware && cfg.PartitionColumn != "" && cfg.NumPartitions > 0 {
		if value, ok := partitionFilterValue(q.Filter, cfg.PartitionColumn); ok {
			p := stream.PartitionFor([]byte(fmt.Sprint(value)), cfg.NumPartitions)
			before := rt.SegmentCount()
			rt = restrict(rt, func(seg string) bool {
				sp, known := rs.segPartition[seg]
				return !known || sp == -1 || sp == p
			})
			out.pruned.SegmentsPrunedByBroker += before - rt.SegmentCount()
		}
	}
	// Time-range pruning: segments whose cached ZK time range cannot
	// overlap the filter's conjunctive time bounds never leave the broker.
	// Only completed segments are dropped — a consuming segment's max time
	// is still moving, so its metadata cannot prove non-overlap.
	if q.Filter != nil && cfg.Schema != nil {
		if timeCol := cfg.Schema.TimeColumn(); timeCol != "" {
			if lo, hi, ok := query.TimeBounds(q.Filter, timeCol); ok {
				rt = restrict(rt, func(seg string) bool {
					m := rs.segMeta[seg]
					if m == nil || m.Status != table.StatusDone {
						return true
					}
					if m.MaxTime < lo || m.MinTime > hi {
						out.pruned.SegmentsPrunedByBroker++
						out.pruned.NumSegmentsQueried++
						out.pruned.TotalDocs += int64(m.NumDocs)
						return false
					}
					return true
				})
			}
		}
	}
	stopRoute()

	// Result-cache dispatch. Only aggregation shapes are cacheable (a
	// selection's row merge order is not deterministic across scatters),
	// and only the immutable portion of the routing table: consuming
	// segments always scatter live, and a hit merges the cached portion
	// with their fresh partials.
	cache := b.resultCache
	if cache == nil || !q.IsAggregation() {
		live, _, err := b.scatterPortions(ctx, qc, rs, resource, q, tenant, rt, nil)
		if err != nil {
			return out, err
		}
		return out, out.fold(qc, live)
	}
	imm, cons := splitConsuming(rt, rs.consuming)
	if len(imm) == 0 {
		// Every routed segment is consuming — nothing cacheable.
		live, _, err := b.scatterPortions(ctx, qc, rs, resource, q, tenant, cons, nil)
		if err != nil {
			return out, err
		}
		return out, out.fold(qc, live)
	}
	key := resultCacheKey(rs, tenant, q)
	if v, ok := cache.Get(resource, q.Table, key); ok {
		if hit, ok := v.(*cachedGather).replay(); ok {
			live, _, err := b.scatterPortions(ctx, qc, rs, resource, q, tenant, cons, nil)
			if err != nil {
				return out, err
			}
			if err := out.fold(qc, hit); err != nil {
				return out, err
			}
			return out, out.fold(qc, live)
		}
	}
	live, cacheable, err := b.scatterPortions(ctx, qc, rs, resource, q, tenant, cons, imm)
	if err != nil {
		return out, err
	}
	if cacheable.complete() && cacheable.result != nil {
		// A result the layout cannot carry is answered and not stored.
		if enc, err := query.EncodeIntermediate(cacheable.result); err == nil {
			cache.Put(resource, q.Table, key, &cachedGather{
				encoded:   enc,
				queried:   cacheable.queried,
				responded: cacheable.responded,
			}, int64(len(enc)))
		}
	}
	if err := out.fold(qc, cacheable); err != nil {
		return out, err
	}
	return out, out.fold(qc, live)
}

// fold absorbs one scatter portion's outcome into the subquery's gather,
// charging the cross-portion merge to the query's merge phase.
func (out *gatherResult) fold(qc *qctx.QueryContext, p gatherResult) error {
	out.queried += p.queried
	out.responded += p.responded
	out.respExcs = append(out.respExcs, p.respExcs...)
	out.srvExcs = append(out.srvExcs, p.srvExcs...)
	if p.result == nil {
		return nil
	}
	if out.result == nil {
		out.result = p.result
		return nil
	}
	stop := qc.Clock(qctx.PhaseMerge)
	defer stop()
	return out.result.Merge(p.result)
}

// scatterPortions fans out the scatter groups of both portions — live
// (consuming segments, or everything when the cache is out of play) and
// cacheable (immutable segments) — in one concurrent wave, then merges
// each group's partial into its own portion so the cacheable half can be
// stored without the moving data mixed in. The gather loop charges
// streaming merges to the merge phase and the rest of its wall clock to
// scatter, keeping the two disjoint so the ledger still sums to at most
// the elapsed wall clock.
func (b *Broker) scatterPortions(ctx context.Context, qc *qctx.QueryContext, rs *routingState, resource string, q *pql.Query, tenant string, live, cacheable RoutingTable) (liveOut, cacheOut gatherResult, err error) {
	scatterStart := time.Now()
	var mergeDur time.Duration
	pqlText := q.String()
	type tagged struct {
		cacheable bool
		gr        groupResult
	}
	total := len(live) + len(cacheable)
	results := make(chan tagged, total)
	for _, portion := range []struct {
		rt        RoutingTable
		cacheable bool
	}{{live, false}, {cacheable, true}} {
		for instance, segs := range portion.rt {
			go func(instance string, segs []string, cacheable bool) {
				results <- tagged{cacheable, b.queryGroup(ctx, qc, rs, resource, pqlText, tenant, q, instance, segs)}
			}(instance, segs, portion.cacheable)
		}
	}
	liveOut.queried, cacheOut.queried = len(live), len(cacheable)
	charge := func() {
		qc.Charge(qctx.PhaseScatter, time.Since(scatterStart)-mergeDur)
		qc.Charge(qctx.PhaseMerge, mergeDur)
	}
	for i := 0; i < total; i++ {
		t := <-results
		dst := &liveOut
		if t.cacheable {
			dst = &cacheOut
		}
		gr := t.gr
		if gr.err != nil {
			charge()
			return liveOut, cacheOut, gr.err
		}
		if gr.responded {
			dst.responded++
		}
		dst.respExcs = append(dst.respExcs, gr.respExcs...)
		dst.srvExcs = append(dst.srvExcs, gr.excs...)
		if gr.result == nil {
			continue
		}
		if dst.result == nil {
			dst.result = gr.result
			continue
		}
		mt := time.Now()
		err := dst.result.Merge(gr.result)
		mergeDur += time.Since(mt)
		if err != nil {
			charge()
			return liveOut, cacheOut, err
		}
	}
	charge()
	return liveOut, cacheOut, nil
}

// queryGroup drives one scatter group to completion: query the primary
// replica (hedging against a straggler if configured), then retry any failed
// segments on untried replicas with backoff, up to the retry budget.
func (b *Broker) queryGroup(ctx context.Context, qc *qctx.QueryContext, rs *routingState, resource, pqlText, tenant string, q *pql.Query, primary string, segs []string) groupResult {
	var gr groupResult
	tried := map[string]bool{}
	assign := RoutingTable{primary: segs}
	lost := false // segments dropped because no untried replica remained
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			b.met.retries.Inc()
			timer := time.NewTimer(retryBackoff)
			select {
			case <-ctx.Done():
				timer.Stop()
				return gr
			case <-timer.C:
			}
		}
		// Deterministic order keeps replica selection reproducible.
		insts := make([]string, 0, len(assign))
		for inst := range assign {
			insts = append(insts, inst)
		}
		sort.Strings(insts)
		var failed []string
		for _, inst := range insts {
			resp, excs := b.hedgedCall(ctx, qc, rs, resource, pqlText, tenant, q, inst, assign[inst], tried)
			gr.excs = append(gr.excs, excs...)
			if resp == nil {
				failed = append(failed, assign[inst]...)
				continue
			}
			// Fold the server's queue/execute timings into the trace as
			// the per-phase maximum: servers run concurrently, so the
			// critical path is what the client can act on.
			qc.ObserveServer(resp.Trace)
			gr.respExcs = append(gr.respExcs, resp.Exceptions...)
			if gr.result == nil {
				gr.result = resp.Result
				continue
			}
			if err := gr.result.Merge(resp.Result); err != nil {
				gr.err = err
				return gr
			}
		}
		if len(failed) == 0 {
			if !lost {
				gr.responded = true
				// Every segment got a result: earlier failures were
				// masked by a retry or hedge.
				for i := range gr.excs {
					gr.excs[i].Recovered = true
				}
			}
			return gr
		}
		if attempt >= maxRetries || ctx.Err() != nil {
			return gr
		}
		next := alternateGroups(rs, failed, tried)
		if next.SegmentCount() < len(failed) {
			lost = true
		}
		if len(next) == 0 {
			return gr
		}
		assign = next
	}
}

// hedgedCall executes one server request with a per-server deadline. When
// hedging is enabled and the server has not answered within HedgeDelay, a
// duplicate request races on an untried replica holding the same segments;
// the first usable response wins. Responses failing shape validation count
// as server failures so corruption can never poison the merge.
func (b *Broker) hedgedCall(ctx context.Context, qc *qctx.QueryContext, rs *routingState, resource, pqlText, tenant string, q *pql.Query, instance string, segs []string, tried map[string]bool) (*transport.QueryResponse, []ServerException) {
	type callRes struct {
		inst string
		resp *transport.QueryResponse
		err  error
	}
	ch := make(chan callRes, 2)
	launch := func(inst string) {
		tried[inst] = true
		go func() {
			resp, err := b.callServer(ctx, qc, resource, pqlText, tenant, inst, segs)
			ch <- callRes{inst, resp, err}
		}()
	}
	launch(instance)
	outstanding := 1

	var hedgeC <-chan time.Time
	var hedgeTimer *time.Timer
	if b.cfg.HedgeDelay > 0 {
		if _, ok := hedgeTarget(rs, segs, tried); ok {
			hedgeTimer = time.NewTimer(b.cfg.HedgeDelay)
			hedgeC = hedgeTimer.C
			defer hedgeTimer.Stop()
		}
	}

	var excs []ServerException
	for outstanding > 0 {
		select {
		case <-ctx.Done():
			// The query deadline passed while calls are still in flight.
			// A well-behaved server unwinds on cancellation, but this
			// gather goroutine must not bet its life on that: abandon
			// the stragglers (the channel is buffered, so their late
			// sends cannot block) and report the group failed.
			excs = append(excs, ServerException{
				Server: instance,
				Error:  fmt.Sprintf("abandoned after query deadline: %v", ctx.Err()),
			})
			return nil, excs
		case <-hedgeC:
			hedgeC = nil
			if h, ok := hedgeTarget(rs, segs, tried); ok {
				b.met.hedges.Inc()
				launch(h)
				outstanding++
			}
		case r := <-ch:
			outstanding--
			if r.err == nil {
				if cerr := r.resp.Result.Conforms(q); cerr != nil {
					r.err = cerr
				}
			}
			if r.err != nil {
				excs = append(excs, ServerException{Server: r.inst, Error: r.err.Error()})
				continue
			}
			return r.resp, excs
		}
	}
	return nil, excs
}

// callServer issues one request to one server under the per-server deadline,
// carrying the query's identity and the deadline budget still unspent at
// send time (parse, routing and any earlier attempts already charged).
func (b *Broker) callServer(ctx context.Context, qc *qctx.QueryContext, resource, pqlText, tenant, instance string, segs []string) (*transport.QueryResponse, error) {
	client, ok := b.registry.ServerClient(instance)
	if !ok {
		return nil, fmt.Errorf("no client for %s", instance)
	}
	cctx, cancel := context.WithTimeout(ctx, b.cfg.perServerTimeout())
	defer cancel()
	var budgetMillis int64
	if left, ok := qc.Remaining(); ok {
		// Round up so a sub-millisecond remainder is not mistaken for
		// "unset" on the wire.
		budgetMillis = int64((left + time.Millisecond - 1) / time.Millisecond)
		if budgetMillis < 1 {
			budgetMillis = 1
		}
	}
	return client.Execute(cctx, &transport.QueryRequest{
		Resource:     resource,
		PQL:          pqlText,
		Segments:     segs,
		Tenant:       tenant,
		QueryID:      qc.ID(),
		BudgetMillis: budgetMillis,
	})
}

// alternateGroups reassigns failed segments onto untried replicas, least
// loaded first. Segments with no untried replica are dropped: they stay
// failed and the group reports an explicitly partial result.
func alternateGroups(rs *routingState, segs []string, tried map[string]bool) RoutingTable {
	sorted := append([]string(nil), segs...)
	sort.Strings(sorted)
	load := map[string]int{}
	out := RoutingTable{}
	for _, seg := range sorted {
		var candidates []string
		for _, inst := range rs.segments[seg] {
			if !tried[inst] {
				candidates = append(candidates, inst)
			}
		}
		if len(candidates) == 0 {
			continue
		}
		sort.Strings(candidates)
		best := candidates[0]
		for _, inst := range candidates[1:] {
			if load[inst] < load[best] {
				best = inst
			}
		}
		out[best] = append(out[best], seg)
		load[best]++
	}
	return out
}

// hedgeTarget picks the lexicographically first untried replica hosting
// every segment of the group, if one exists.
func hedgeTarget(rs *routingState, segs []string, tried map[string]bool) (string, bool) {
	counts := map[string]int{}
	for _, seg := range segs {
		for _, inst := range rs.segments[seg] {
			if !tried[inst] {
				counts[inst]++
			}
		}
	}
	var full []string
	for inst, n := range counts {
		if n == len(segs) {
			full = append(full, inst)
		}
	}
	if len(full) == 0 {
		return "", false
	}
	sort.Strings(full)
	return full[0], true
}

// partitionFilterValue extracts the value of a top-level equality predicate
// on the partition column (directly or inside an AND).
func partitionFilterValue(p pql.Predicate, column string) (any, bool) {
	switch n := p.(type) {
	case pql.Comparison:
		if n.Column == column && n.Op == pql.OpEq {
			return n.Value, true
		}
	case pql.And:
		for _, c := range n.Children {
			if v, ok := partitionFilterValue(c, column); ok {
				return v, true
			}
		}
	}
	return nil, false
}

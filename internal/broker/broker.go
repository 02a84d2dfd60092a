package broker

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"time"

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
	// gets an equal share of it, so a hung server leaves time for the retry.
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
// retryBackoff.
const (
	routingTables = 8
	maxRetries    = 1
	retryBackoff  = 2 * time.Millisecond
)

// errNoSession fails a query while the broker has no live metadata session.
var errNoSession = errors.New("broker: no live metadata session; the routing view is re-read once one reopens")

// Broker routes queries to servers and merges their partial results.
type Broker struct {
	cfg      Config
	store    zkmeta.Endpoint
	sess     *zkmeta.Kept
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
	routing      map[string]*routingState // resource → watched snapshot
	routingEpoch int                      // bumped by every invalidation
	watching     map[string]bool          // znode paths the session watches
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
		cfg:      cfg,
		store:    store,
		registry: registry,
		met:      newBrokerMetrics(cfg.Metrics),
		slow:     metrics.NewSlowLog(0),
		rnd:      rand.New(rand.NewSource(seed)),
		routing:  map[string]*routingState{},
		watching: map[string]bool{},
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
// 3.3.2). It never fails: a session that cannot open yet is retried until
// one does, and queries fail fast until then.
func (b *Broker) Start() error {
	b.sess = zkmeta.Keep(b.store, b.onSession)
	return nil
}

// onSession registers the broker over a new session and drops every snapshot
// and watch of the last one, so queries re-read the view through this one.
func (b *Broker) onSession(sess zkmeta.Client) error {
	admin := helix.NewAdmin(sess, b.cfg.Cluster)
	if err := admin.CreateCluster(); err != nil {
		return err
	}
	if err := admin.RegisterInstance(helix.InstanceConfig{Instance: b.cfg.Instance, Tags: []string{"broker"}}); err != nil {
		return err
	}
	events, _ := sess.WatchChildren(helix.ExternalViewsPath(b.cfg.Cluster))
	b.mu.Lock()
	b.watching = map[string]bool{} // the last session's watches closed with it
	b.mu.Unlock()
	go func() {
		for range events {
			b.invalidateAll()
		}
	}()
	b.invalidateAll()
	return nil
}

// Stop leaves the cluster; its watches close with its session, and a stopped
// broker never rejoins.
func (b *Broker) Stop() { b.sess.Close() }

// ResultCache exposes the broker result-cache tier (nil when disabled);
// tests and the HTTP debug surface read its occupancy.
func (b *Broker) ResultCache() *qcache.Cache { return b.resultCache }

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

// Execute parses PQL, plans the query from the table's watched snapshots
// (a warm query reads no metadata), scatters the plan in one wave and
// gathers the merged result (paper 3.3.3). One QueryContext carries the whole
// lifecycle: parse and route are charged against the deadline budget before
// the fan-out, each server call carries the budget left at send time, and the
// per-phase ledger is returned to the client as the response trace.
func (b *Broker) Execute(ctx context.Context, pqlText, tenant string) (resp *Response, err error) {
	qc := qctx.New("", b.cfg.QueryTimeout)
	ctx = qctx.With(ctx, qc)
	stop := qc.Clock(qctx.PhaseParse)
	q, err := pql.Parse(pqlText)
	stop()
	if err != nil {
		b.met.badRequests.Inc()
		b.recordParseFailure(pqlText, err)
		return nil, err
	}
	stop = qc.Clock(qctx.PhaseRoute)
	off, rt, err := b.tableStates(q.Table)
	if err != nil {
		stop()
		b.met.badRequests.Inc()
		return nil, err
	}
	b.met.requests.Inc()
	b.met.queries.With(q.Table).Inc()
	// Failures past this point have a table to charge them to.
	defer func() {
		if err != nil {
			b.met.failures.With(q.Table).Inc()
		}
	}()
	subs, pruned := b.route(q, off, rt)
	stop()

	ctx, cancel := context.WithTimeout(ctx, b.cfg.QueryTimeout)
	defer cancel()
	for i := range subs {
		b.plan(&subs[i], tenant)
	}
	if err := b.scatter(ctx, qc, subs, tenant); err != nil {
		return nil, err
	}
	b.storeCacheable(subs)
	stop = qc.Clock(qctx.PhaseMerge)
	all, err := foldPlan(subs)
	stop()
	if err != nil {
		return nil, err
	}
	return b.respond(qc, q, pqlText, subs[0].rs.cfg, all, pruned)
}

// respond finalizes the folded outcome and records the query's metrics.
func (b *Broker) respond(qc *qctx.QueryContext, q *pql.Query, pqlText string, cfg *table.Config, all gather, pruned query.Stats) (*Response, error) {
	// Unrecovered server failures surface as client-visible exceptions;
	// failures masked by a retry or hedge stay in ServerExceptions only.
	exceptions := all.respExcs
	for _, e := range all.srvExcs {
		if !e.Recovered {
			exceptions = append(exceptions, fmt.Sprintf("server %s: %s", e.Server, e.Error))
		}
	}
	merged := all.result
	if merged == nil {
		if len(exceptions) == 0 && all.responded == all.queried && pruned.SegmentsPrunedByBroker == 0 {
			return nil, fmt.Errorf("broker: no servers produced results")
		}
		// Every server failed — or every segment was pruned before the
		// scatter: degrade to an empty (for pruning: complete and exact)
		// result rather than failing the query.
		schema := cfg.Schema
		if eff, err := cfg.EffectiveSchema(); err == nil {
			schema = eff
		}
		merged = query.EmptyIntermediate(q, schema)
	}
	merged.Stats.Merge(pruned)
	stop := qc.Clock(qctx.PhaseReduce)
	final := merged.Finalize(q)
	stop()
	elapsed := time.Since(qc.StartTime())
	final.Exceptions = exceptions
	final.Partial = len(exceptions) > 0 || all.responded < all.queried
	final.TimeMillis = elapsed.Milliseconds()
	final.QueryID = qc.ID()
	final.Trace = qc.TraceSnapshot()

	b.met.latency.With(q.Table).ObserveDuration(elapsed)
	b.met.fanout.Observe(float64(all.queried))
	if n := pruned.SegmentsPrunedByBroker; n > 0 {
		b.met.pruned.With(q.Table).Add(int64(n))
	}
	if final.Partial {
		b.met.partials.With(q.Table).Inc()
	}
	for _, e := range all.srvExcs {
		b.met.exceptions.With(fmt.Sprintf("%t", e.Recovered)).Inc()
	}
	b.slow.Record(metrics.SlowQuery{
		QueryID:    final.QueryID,
		Table:      q.Table,
		PQL:        pqlText,
		TimeMillis: final.TimeMillis,
		LatencyUs:  metrics.DurationToUs(elapsed),
		Partial:    final.Partial,
		Phases:     final.Trace,
	})
	return &Response{
		Result:           final,
		ServersQueried:   all.queried,
		ServersResponded: all.responded,
		ServerExceptions: all.srvExcs,
	}, nil
}

// gather accumulates scatter outcomes — one scatter group's after retries
// and hedging, a portion's, a subquery's, or the whole query's.
type gather struct {
	result    *query.Intermediate
	respExcs  []string          // exceptions carried inside successful responses
	srvExcs   []ServerException // transport/server-level failures
	queried   int               // scatter groups fanned out
	responded int               // groups that produced a full result
}

// fold absorbs o; o's result becomes g's if g has none, else merges into it.
func (g *gather) fold(o gather) error {
	g.queried += o.queried
	g.responded += o.responded
	g.respExcs = append(g.respExcs, o.respExcs...)
	g.srvExcs = append(g.srvExcs, o.srvExcs...)
	if o.result == nil {
		return nil
	}
	if g.result == nil {
		g.result = o.result
		return nil
	}
	return g.result.Merge(o.result)
}

// subquery is one resource's share of a query (a hybrid table has one per
// half), answered in two portions: cached, over immutable segments the result
// tier may answer, and live, over the rest.
type subquery struct {
	rs           *routingState
	q            *pql.Query // as sent to servers
	cached, live portion
}

// portion is one unit of the plan: scatter groups and the outcome they fold
// into. A result-cache hit is a portion already answered, with no groups.
type portion struct {
	groups RoutingTable
	key    string // result-cache key of a portion to store, "" otherwise
	acc    gather
}

// route splits a query into subqueries, rewriting a hybrid query around the
// offline half's time boundary (paper Figure 6), and prunes each.
func (b *Broker) route(q *pql.Query, off, rt *routingState) ([]subquery, query.Stats) {
	var subs []subquery
	for _, rs := range []*routingState{off, rt} {
		if rs.exists() {
			subs = append(subs, subquery{rs: rs, q: q})
		}
	}
	// Without a boundary (no completed offline data, or no time column)
	// both halves run unrewritten: paper 3.3.3 requires the time column to
	// prevent double counting, so without it deduplication is the operator's.
	if len(subs) == 2 && off.hasBoundary && off.cfg.Schema.TimeColumn() != "" {
		col := off.cfg.Schema.TimeColumn()
		subs[0].q = q.WithExtraFilter(pql.Comparison{Column: col, Op: pql.OpLt, Value: off.boundary})
		subs[1].q = q.WithExtraFilter(pql.Comparison{Column: col, Op: pql.OpGte, Value: off.boundary})
	}
	var pruned query.Stats
	for i := range subs {
		pruned.Merge(b.prune(&subs[i]))
	}
	return subs, pruned
}

// prune picks a subquery's routing table, minus the segments the cached
// metadata proves cannot match, as its live portion. The stats count every
// drop in SegmentsPrunedByBroker, and time-range drops in NumSegmentsQueried
// and TotalDocs too: with pruning off those would have been counted.
func (b *Broker) prune(sub *subquery) (pruned query.Stats) {
	rs, cfg, q := sub.rs, sub.rs.cfg, sub.q
	b.rndMu.Lock()
	rt := rs.pick(b.rnd)
	b.rndMu.Unlock()
	// Partition-aware pruning (paper 4.4): a single-partition query only
	// contacts servers holding that partition's segments.
	if b.cfg.PartitionAware && cfg.PartitionColumn != "" && cfg.NumPartitions > 0 {
		if value, ok := partitionFilterValue(q.Filter, cfg.PartitionColumn); ok {
			p := stream.PartitionFor([]byte(fmt.Sprint(value)), cfg.NumPartitions)
			before := rt.SegmentCount()
			rt = restrict(rt, func(seg string) bool {
				m := rs.segMeta[seg]
				return m == nil || m.Partition == -1 || m.Partition == p
			})
			pruned.SegmentsPrunedByBroker += before - rt.SegmentCount()
		}
	}
	// Time-range pruning: segments whose cached ZK time range cannot
	// overlap the filter's conjunctive time bounds never leave the broker.
	// Only completed segments are dropped — a consuming segment's max time
	// is still moving, so its metadata cannot prove non-overlap.
	if timeCol := cfg.Schema.TimeColumn(); q.Filter != nil && timeCol != "" {
		if lo, hi, ok := query.TimeBounds(q.Filter, timeCol); ok {
			rt = restrict(rt, func(seg string) bool {
				m := rs.segMeta[seg]
				if m == nil || m.Status != table.StatusDone {
					return true
				}
				if m.MaxTime < lo || m.MinTime > hi {
					pruned.SegmentsPrunedByBroker++
					pruned.NumSegmentsQueried++
					pruned.TotalDocs += int64(m.NumDocs)
					return false
				}
				return true
			})
		}
	}
	sub.live.groups = rt
	return pruned
}

// plan carves a subquery's cacheable portion out of its live one. Only
// aggregations go to the result tier (a selection's row merge order is not
// deterministic across scatters), and only their immutable segments:
// consuming segments always scatter live, so a hit still reflects every row
// ingested since the entry was stored.
func (b *Broker) plan(sub *subquery, tenant string) {
	if b.resultCache == nil || !sub.q.IsAggregation() {
		return
	}
	imm, live, consuming := sub.live.groups, RoutingTable(nil), sub.rs.consuming
	if len(consuming) > 0 {
		imm = restrict(sub.live.groups, func(seg string) bool { return !consuming[seg] })
		live = restrict(sub.live.groups, func(seg string) bool { return consuming[seg] })
	}
	if len(imm) == 0 {
		return
	}
	sub.live.groups = live
	sub.cached = portion{groups: imm, key: resultCacheKey(sub.rs, tenant, sub.q)}
	if v, ok := b.resultCache.Get(sub.rs.resource, sub.q.Table, sub.cached.key); ok {
		if hit, ok := v.(*cachedGather).replay(); ok {
			sub.cached = portion{acc: hit}
		}
	}
}

// scatter fans out every group of every portion in one wave, folding each
// group into its own portion so a cacheable one is stored without the moving
// data mixed in. Merges are charged to merge and the rest of the wave's wall
// clock to scatter: disjoint, so the ledger sums to at most the wall clock.
func (b *Broker) scatter(ctx context.Context, qc *qctx.QueryContext, subs []subquery, tenant string) error {
	start := time.Now()
	var mergeDur time.Duration
	defer func() {
		qc.Charge(qctx.PhaseScatter, time.Since(start)-mergeDur)
		qc.Charge(qctx.PhaseMerge, mergeDur)
	}()
	type arrival struct {
		p   *portion
		g   gather
		err error
	}
	n := 0
	for _, sub := range subs {
		n += len(sub.cached.groups) + len(sub.live.groups)
	}
	results := make(chan arrival, n)
	for i := range subs {
		sub := &subs[i]
		for _, p := range []*portion{&sub.cached, &sub.live} {
			for instance, segs := range p.groups {
				go func() {
					g, err := b.queryGroup(ctx, qc, sub, tenant, instance, segs)
					results <- arrival{p, g, err}
				}()
			}
		}
	}
	for ; n > 0; n-- {
		a := <-results
		if a.err != nil {
			return a.err
		}
		mt := time.Now()
		err := a.p.acc.fold(a.g)
		mergeDur += time.Since(mt)
		if err != nil {
			return err
		}
	}
	return nil
}

// storeCacheable puts each complete cacheable portion into the result tier.
// It runs before foldPlan, whose merges mutate the results they fold into.
func (b *Broker) storeCacheable(subs []subquery) {
	for _, sub := range subs {
		p := sub.cached
		if p.key == "" || p.acc.result == nil || !p.acc.complete() {
			continue
		}
		// A result the layout cannot carry is answered and not stored.
		if enc, err := query.EncodeIntermediate(p.acc.result); err == nil {
			b.resultCache.Put(sub.rs.resource, sub.q.Table, p.key, &cachedGather{
				encoded:   enc,
				queried:   p.acc.queried,
				responded: p.acc.responded,
			}, int64(len(enc)))
		}
	}
}

// foldPlan folds the portions into the query's outcome in plan order: each
// subquery's cached portion before its live one, then the offline subquery
// before the realtime one, so floating-point folds keep their order.
func foldPlan(subs []subquery) (gather, error) {
	var all gather
	for _, sub := range subs {
		one := sub.cached.acc
		err := one.fold(sub.live.acc)
		if err == nil {
			err = all.fold(one)
		}
		if err != nil {
			return all, err
		}
	}
	return all, nil
}

// queryGroup drives one scatter group to completion: query the primary
// replica (hedging against a straggler if configured), then retry any failed
// segments on untried replicas with backoff, up to the retry budget. A merge
// error is fatal to the query.
func (b *Broker) queryGroup(ctx context.Context, qc *qctx.QueryContext, sub *subquery, tenant, primary string, segs []string) (gather, error) {
	g := gather{queried: 1}
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
				return g, nil
			case <-timer.C:
			}
		}
		var failed []string
		// Deterministic order keeps replica selection reproducible.
		for _, inst := range slices.Sorted(maps.Keys(assign)) {
			resp, excs := b.hedgedCall(ctx, qc, sub, tenant, inst, assign[inst], tried)
			g.srvExcs = append(g.srvExcs, excs...)
			if resp == nil {
				failed = append(failed, assign[inst]...)
				continue
			}
			// Fold the server's queue/execute timings into the trace as
			// the per-phase maximum: servers run concurrently, so the
			// critical path is what the client can act on.
			qc.ObserveServer(resp.Trace)
			if err := g.fold(gather{result: resp.Result, respExcs: resp.Exceptions}); err != nil {
				return g, err
			}
		}
		if len(failed) == 0 {
			if !lost {
				g.responded = 1
				// Every segment got a result: earlier failures were
				// masked by a retry or hedge.
				for i := range g.srvExcs {
					g.srvExcs[i].Recovered = true
				}
			}
			return g, nil
		}
		if attempt >= maxRetries || ctx.Err() != nil {
			return g, nil
		}
		next := alternateGroups(sub.rs, failed, tried)
		if next.SegmentCount() < len(failed) {
			lost = true
		}
		if len(next) == 0 {
			return g, nil
		}
		assign = next
	}
}

// hedgedCall executes one server request with a per-server deadline. When
// hedging is enabled and the server has not answered within HedgeDelay, a
// duplicate request races on an untried replica holding the same segments;
// the first usable response wins. Responses failing shape validation count
// as server failures so corruption can never poison the merge.
func (b *Broker) hedgedCall(ctx context.Context, qc *qctx.QueryContext, sub *subquery, tenant, instance string, segs []string, tried map[string]bool) (*transport.QueryResponse, []ServerException) {
	type callRes struct {
		inst string
		resp *transport.QueryResponse
		err  error
	}
	ch := make(chan callRes, 2)
	launch := func(inst string) {
		tried[inst] = true
		go func() {
			resp, err := b.callServer(ctx, qc, sub, tenant, inst, segs)
			ch <- callRes{inst, resp, err}
		}()
	}
	launch(instance)
	outstanding := 1

	var hedgeC <-chan time.Time
	if b.cfg.HedgeDelay > 0 {
		if _, ok := hedgeTarget(sub.rs, segs, tried); ok {
			timer := time.NewTimer(b.cfg.HedgeDelay)
			defer timer.Stop()
			hedgeC = timer.C
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
			if h, ok := hedgeTarget(sub.rs, segs, tried); ok {
				b.met.hedges.Inc()
				launch(h)
				outstanding++
			}
		case r := <-ch:
			outstanding--
			if r.err == nil {
				if cerr := r.resp.Result.Conforms(sub.q); cerr != nil {
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
func (b *Broker) callServer(ctx context.Context, qc *qctx.QueryContext, sub *subquery, tenant, instance string, segs []string) (*transport.QueryResponse, error) {
	client, ok := b.registry.ServerClient(instance)
	if !ok {
		return nil, fmt.Errorf("no client for %s", instance)
	}
	cctx, cancel := context.WithTimeout(ctx, b.cfg.QueryTimeout/(maxRetries+1))
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
		Resource:     sub.rs.resource,
		Query:        sub.q,
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
	load := map[string]int{}
	out := RoutingTable{}
	for _, seg := range slices.Sorted(slices.Values(segs)) {
		best := "" // the least loaded untried replica, ties to the first name
		for _, inst := range rs.segments[seg] {
			if !tried[inst] && (best == "" || load[inst] < load[best] || load[inst] == load[best] && inst < best) {
				best = inst
			}
		}
		if best != "" {
			out[best] = append(out[best], seg)
			load[best]++
		}
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
	best := ""
	for inst, n := range counts {
		if n == len(segs) && (best == "" || inst < best) {
			best = inst
		}
	}
	return best, best != ""
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

package main

// adapter.go is the only file of the benchmark that imports pinot/internal/...
// Every other file of bench/ goes through the names declared here, so a
// refactor of the engine knows exactly which seams the benchmark relies on.
//
// Symbols relied on:
//
//	cluster   NewLocal, Options{Servers, Transport, Metrics}, Cluster{Name, Store, Streams,
//	          Servers, Metrics}, AddTable, UploadSegment, WaitForConsuming, WaitForLeader,
//	          ExternalView, StartTCPTransport, Broker, Shutdown
//	controller Controller.Tables/SegmentMetas
//	broker    New, Config{Cluster, Instance, Seed, Metrics}, Broker.Start/Stop/Execute/ResultCache,
//	          Response{Result, ServersQueried, ServersResponded}
//	server    Server.Instance (and Server as a transport.StreamHandler)
//	transport Registry, RegistryFunc, ServerClient, StreamHandler, QueryRequest, QueryResponse,
//	          FinalFrame, NewTCPQueryServer, TCPQueryServer.Serve/Close, NewPool, Pool.Close,
//	          NewTCPRegistry, EncodeResponse, DecodeResponse, UseRegistry
//	query     Run, Options (zero value only), IndexedSegment, Intermediate{Merge, Finalize,
//	          Clone, SizeBytes}, ExecuteSegment, Result{Rows, Stats, Trace, Partial}, Stats
//	qctx      Trace, PhaseParse/Route/Queue/Scatter/Execute/Merge/Reduce
//	pql       Parse, Query.CanonicalString
//	segment   NewSchema, FieldSpec, Row, IndexConfig, NewBuilder, Builder.Add/Build,
//	          Segment.Marshal/SetStarTreeData/NumDocs, Unmarshal, NewMutableSegment,
//	          MutableSegment.Add/Seal, TypeString/TypeLong/TypeDouble, Dimension/Metric/Time
//	startree  Config, Build, Tree.Marshal, Unmarshal
//	table     Config, Offline, Realtime, ResourceName, SegmentMeta{Status, SizeBytes, NumDocs}, StatusDone
//	qcache    New, Config{Tier, Metrics}, Cache.Get/Put/Bytes
//	metrics   NewRegistry, Registry.Total/Value
//	stream    Cluster.CreateTopic, Topic.ProduceTo
//	helix     StateOnline (through Cluster.ExternalView)
//
// Metric names read from the registry: pinot_transport_pool_hits_total,
// pinot_transport_pool_misses_total, pinot_cache_hits_total, pinot_cache_misses_total,
// pinot_cache_evictions_total (label tier), pinot_controller_segments_committed_total,
// pinot_consumer_rows_consumed_total.

import (
	"context"
	"net"
	"time"

	"pinot/internal/broker"
	"pinot/internal/cluster"
	"pinot/internal/helix"
	"pinot/internal/metrics"
	"pinot/internal/pql"
	"pinot/internal/qcache"
	"pinot/internal/qctx"
	"pinot/internal/query"
	"pinot/internal/segment"
	"pinot/internal/startree"
	"pinot/internal/stream"
	"pinot/internal/table"
	"pinot/internal/transport"
)

type (
	pinotCluster   = cluster.Cluster
	pinotBroker    = broker.Broker
	brokerResponse = broker.Response
	registry       = transport.Registry
	serverClient   = transport.ServerClient
	streamHandler  = transport.StreamHandler
	queryRequest   = transport.QueryRequest
	queryResponse  = transport.QueryResponse
	finalFrame     = transport.FinalFrame
	intermediate   = query.Intermediate
	indexedSegment = query.IndexedSegment
	queryStats     = query.Stats
	phaseKey       = qctx.Phase
	schema         = segment.Schema
	fieldSpec      = segment.FieldSpec
	segRow         = segment.Row
	indexConfig    = segment.IndexConfig
	immutableSeg   = segment.Segment
	starTreeConfig = startree.Config
	tableConfig    = table.Config
	metricRegistry = metrics.Registry
	streamTopic    = stream.Topic
	resultCache    = qcache.Cache
)

const (
	typeString = segment.TypeString
	typeLong   = segment.TypeLong
	typeDouble = segment.TypeDouble
	kindDim    = segment.Dimension
	kindMetric = segment.Metric
	kindTime   = segment.Time

	tableOffline  = table.Offline
	tableRealtime = table.Realtime

	phaseParse   = qctx.PhaseParse
	phaseRoute   = qctx.PhaseRoute
	phaseQueue   = qctx.PhaseQueue
	phaseScatter = qctx.PhaseScatter
	phaseExecute = qctx.PhaseExecute
	phaseMerge   = qctx.PhaseMerge
	phaseReduce  = qctx.PhaseReduce
)

func newSchema(name string, fields []fieldSpec) (*schema, error) {
	return segment.NewSchema(name, fields)
}

func resourceName(tableName string, realtime bool) string {
	if realtime {
		return table.ResourceName(tableName, table.Realtime)
	}
	return table.ResourceName(tableName, table.Offline)
}

// newCluster starts an in-process cluster in the shipped default
// configuration over the loopback TCP data plane. The only settings are the
// server count and the registry the harness reads. Queries go through a
// plane (below), whose broker takes its routing seed from -seed so replica
// choice is not a function of the clock.
func newCluster(servers int, reg *metricRegistry) (*pinotCluster, error) {
	transport.UseRegistry(reg)
	return cluster.NewLocal(cluster.Options{Servers: servers, Transport: "tcp", Metrics: reg})
}

func newRegistry() *metricRegistry { return metrics.NewRegistry() }

// plane is the data plane the harness queries through: a broker built with
// broker.New over the framed TCP protocol to the cluster's servers. Untraced
// (nil wrappers) it dials the cluster's own listeners through the cluster's
// own pool; traced, it serves wrapHandler(server) on listeners of its own and
// scatters through wrapClient(tcp client), so the public seams are decorated
// without touching the engine.
type plane struct {
	Broker  *pinotBroker
	servers []*transport.TCPQueryServer
	pool    *transport.Pool
}

// detached is a context with its parent's deadline and values and without
// its cancellation. transport.TCPClient.roundTrip starts a watchdog goroutine
// that selects on ctx.Done() and on its own exit channel; the broker cancels
// the per-server context right after the call returns, so a watchdog that has
// not been scheduled yet can pick ctx.Done(), and then sets a deadline in the
// past on a connection that is already back in the pool, failing whichever
// query reuses it (as a partial result with "i/o timeout"). The fix belongs
// in transport; this benchmark may not touch it, and a workload must not fail
// operations, so the plane's ServerClients hide the cancellation, and only
// that, from the TCP client: the per-call deadline still reaches the socket
// (roundTrip sets it from ctx.Deadline), the budget still travels on the wire
// as BudgetMillis and the broker still abandons a hung call. What this hides
// is measured by the traced run through the cluster's own broker and reported
// as transport.production_failed_ratio; when that reads 0, delete this.
type detached struct{ context.Context }

func (detached) Done() <-chan struct{} { return nil }
func (detached) Err() error            { return nil }

type uncancelledClient struct{ inner serverClient }

func (u uncancelledClient) Execute(ctx context.Context, req *queryRequest) (*queryResponse, error) {
	return u.inner.Execute(detached{ctx}, req)
}

func newPlane(c *pinotCluster, seed int64,
	wrapHandler func(instance string, h streamHandler) streamHandler,
	wrapClient func(instance string, sc serverClient) serverClient) (*plane, error) {
	p := &plane{}
	var tcp registry
	if wrapHandler == nil {
		var err error
		if tcp, err = c.StartTCPTransport(); err != nil {
			return nil, err
		}
	} else {
		p.pool = transport.NewPool()
		addrs := map[string]string{}
		for _, s := range c.Servers {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				p.Close()
				return nil, err
			}
			ts := transport.NewTCPQueryServer(wrapHandler(s.Instance(), s))
			go ts.Serve(lis)
			p.servers = append(p.servers, ts)
			addrs[s.Instance()] = lis.Addr().String()
		}
		tcp = transport.NewTCPRegistry(func(inst string) (string, bool) {
			a, ok := addrs[inst]
			return a, ok
		}, p.pool)
	}
	reg := transport.RegistryFunc(func(inst string) (serverClient, bool) {
		sc, ok := tcp.ServerClient(inst)
		if !ok {
			return nil, false
		}
		sc = uncancelledClient{sc}
		if wrapClient != nil {
			sc = wrapClient(inst, sc)
		}
		return sc, true
	})
	p.Broker = broker.New(broker.Config{Cluster: c.Name, Instance: "benchbroker", Seed: seed, Metrics: c.Metrics}, c.Store, reg)
	if err := p.Broker.Start(); err != nil {
		p.Close()
		return nil, err
	}
	return p, nil
}

func (p *plane) Close() {
	if p.Broker != nil {
		p.Broker.Stop()
	}
	for _, ts := range p.servers {
		ts.Close()
	}
	if p.pool != nil {
		p.pool.Close()
	}
}

// buildSegment builds one immutable segment from rows.
func buildSegment(tableName, segName string, sch *schema, idx indexConfig, rows []segRow) (*immutableSeg, error) {
	b, err := segment.NewBuilder(tableName, segName, sch, idx)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if err := b.Add(r); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// buildStarTree builds and serializes the star-tree of a segment.
func buildStarTree(seg *immutableSeg, cfg starTreeConfig) ([]byte, error) {
	tree, err := startree.Build(seg, cfg)
	if err != nil {
		return nil, err
	}
	return tree.Marshal()
}

// loadIndexed turns a marshalled segment back into what a server would
// execute against (segment plus star-tree), for the direct query probes.
func loadIndexed(blob []byte) (indexedSegment, error) {
	seg, err := segment.Unmarshal(blob)
	if err != nil {
		return indexedSegment{}, err
	}
	is := indexedSegment{Seg: seg}
	if data := seg.StarTreeData(); data != nil {
		tree, err := startree.Unmarshal(data)
		if err != nil {
			return indexedSegment{}, err
		}
		is.Tree = tree
	}
	return is, nil
}

// sealMutable adds rows to a fresh mutable segment and seals it, returning
// the time spent in Add and in Seal.
func sealMutable(tableName string, sch *schema, rows []segRow) (add, seal time.Duration, err error) {
	ms, err := segment.NewMutableSegment(tableName, tableName+"__probe", sch, indexConfig{})
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	for _, r := range rows {
		if err := ms.Add(r); err != nil {
			return 0, 0, err
		}
	}
	add = time.Since(t0)
	t0 = time.Now()
	_, err = ms.Seal()
	return add, time.Since(t0), err
}

func parseCanonical(pqlText string) (string, error) {
	q, err := pql.Parse(pqlText)
	if err != nil {
		return "", err
	}
	return q.CanonicalString(), nil
}

// runDirect executes PQL on one node's segments with default options, the
// same engine entry point the examples use.
func runDirect(ctx context.Context, pqlText string, segs []indexedSegment, sch *schema) (*query.Result, error) {
	return query.Run(ctx, pqlText, segs, sch, query.Options{})
}

// segmentPartials executes a parsed query per segment and returns the
// per-segment intermediates, the inputs of Intermediate.Merge/Finalize.
func segmentPartials(ctx context.Context, pqlText string, segs []indexedSegment, sch *schema) ([]*intermediate, func(*intermediate) int, error) {
	q, err := pql.Parse(pqlText)
	if err != nil {
		return nil, nil, err
	}
	out := make([]*intermediate, 0, len(segs))
	for _, is := range segs {
		im, err := query.ExecuteSegment(ctx, is, q, sch, query.Options{})
		if err != nil {
			return nil, nil, err
		}
		out = append(out, im)
	}
	finalize := func(m *intermediate) int { return len(m.Finalize(q).Rows) }
	return out, finalize, nil
}

func encodeResponse(r *queryResponse) ([]byte, error) { return transport.EncodeResponse(r) }
func decodeResponse(b []byte) (*queryResponse, error) { return transport.DecodeResponse(b) }

func newProbeCache(reg *metricRegistry) *resultCache {
	return qcache.New(qcache.Config{Tier: "probe", Metrics: reg})
}

// fullyOnline counts segments of a resource that are ONLINE on at least
// `replicas` instances in the external view.
func fullyOnline(c *pinotCluster, resource string, replicas int) int {
	ev, err := c.ExternalView(resource)
	if err != nil {
		return 0
	}
	n := 0
	for seg := range ev.Partitions {
		if len(ev.InstancesFor(seg, helix.StateOnline)) >= replicas {
			n++
		}
	}
	return n
}

// storedSegments sums the object-store bytes and the rows of every
// committed segment of every table.
func storedSegments(c *pinotCluster) (bytes, rows int64, segments int, err error) {
	ctrl, err := c.WaitForLeader(5 * time.Second)
	if err != nil {
		return 0, 0, 0, err
	}
	resources, err := ctrl.Tables()
	if err != nil {
		return 0, 0, 0, err
	}
	for _, res := range resources {
		metas, err := ctrl.SegmentMetas(res)
		if err != nil {
			return 0, 0, 0, err
		}
		for _, m := range metas {
			if m.Status == table.StatusDone {
				bytes += m.SizeBytes
				rows += int64(m.NumDocs)
				segments++
			}
		}
	}
	return bytes, rows, segments, nil
}

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// The traced run measures single layers from the benchmark's own files: it
// decorates the public seams (ServerClient around each TCP client,
// StreamHandler around each server) of a broker the harness builds, reads
// the phases the response already carries, and calls public functions of
// single packages directly over the same rows and the same queries. Spans
// inside the program are a later change. End-to-end metrics never come from
// this run.

// layerMetric is one per-layer metric as BENCHMARK.json declares it.
type layerMetric struct {
	name, unit string
	higher     bool // higher is better
}

// perLayer is the list BENCHMARK.json declares, in its order. The first
// component of a name is the package the number belongs to.
var perLayer = []layerMetric{
	{"pql.parse_us", "us", false},
	{"broker.route_us", "us", false},
	{"broker.scatter_us", "us", false},
	{"broker.merge_us", "us", false},
	{"broker.reduce_us", "us", false},
	{"broker.self_us", "us", false},
	{"broker.servers_per_query", "count", false},
	{"broker.segments_pruned_ratio", "ratio", true},
	{"broker.result_cache_hit_ratio", "ratio", true},
	{"transport.wire_us", "us", false},
	{"transport.encode_us", "us", false},
	{"transport.decode_us", "us", false},
	{"transport.bytes_per_response", "B", false},
	{"transport.allocs_per_roundtrip", "count", false},
	{"transport.pool_reuse_ratio", "ratio", true},
	{"transport.production_failed_ratio", "ratio", false},
	{"server.execute_us", "us", false},
	{"server.queue_us", "us", false},
	{"server.slowest_share_of_root", "ratio", false},
	{"server.agg_cache_hit_ratio", "ratio", true},
	{"server.dictexpr_cache_hit_ratio", "ratio", true},
	{"server.consume_rows_per_s", "1/s", true},
	{"server.freshness_p50_ms", "ms", false},
	{"server.seal_ms", "ms", false},
	{"query.exec_us", "us", false},
	{"query.ns_per_doc_scanned", "ns", false},
	{"query.docs_scanned_per_query", "count", false},
	{"query.entries_scanned_per_query", "count", false},
	{"query.group_state_bytes_per_query", "B", false},
	{"query.segments_pruned_ratio", "ratio", true},
	{"query.startree_segments_ratio", "ratio", true},
	{"query.metadata_only_ratio", "ratio", true},
	{"query.merge_us", "us", false},
	{"query.finalize_us", "us", false},
	{"segment.build_rows_per_s", "1/s", true},
	{"segment.marshal_ms", "ms", false},
	{"segment.unmarshal_ms", "ms", false},
	{"segment.bytes_per_row", "B", false},
	{"segment.mutable_add_rows_per_s", "1/s", true},
	{"segment.seal_ms", "ms", false},
	{"startree.build_ms", "ms", false},
	{"startree.records_scanned_ratio", "ratio", false},
	{"qcache.get_ns", "ns", false},
	{"qcache.put_ns", "ns", false},
	{"qcache.result_bytes", "B", false},
	{"qcache.evictions", "count", false},
	{"controller.upload_to_online_ms", "ms", false},
	{"controller.commits", "count", false},
	{"stream.produce_ns", "ns", false},
	{"runtime.gc_cycles_per_kq", "count", false},
	{"runtime.gc_pause_ms_per_kq", "ms", false},
	{"bench.trace_overhead_ratio", "ratio", false},
	{"bench.trace_coverage_ratio", "ratio", true},
}

type layers struct {
	metrics map[string]float64
	samples map[string]int
}

func (l *layers) set(name string, v float64, samples int) {
	l.metrics[name] = v
	l.samples[name] = samples
}

// ---- recording ----

// callSpan is one ServerClient.Execute as the broker's side saw it.
type callSpan struct {
	qid, instance string
	start, end    time.Time
}

// handleSpan is one StreamHandler.ExecuteStream as the server's side saw
// it, with the time spent inside emit (encode and socket write) and the
// phases of the server's own trailer.
type handleSpan struct {
	qid, instance string
	start, end    time.Time
	emit          time.Duration
	queue, exec   time.Duration
}

// rootSpan is the harness's interval around one Broker.Execute.
type rootSpan struct {
	start, end time.Time
	resp       *brokerResponse
}

// tracer keeps every span of a traced pass in memory.
type tracer struct {
	mu       sync.Mutex
	roots    []rootSpan
	calls    []callSpan
	handles  []handleSpan
	captured []*queryResponse // a sample of server responses, for the codec probes
}

const captureResponses = 64

type tracedClient struct {
	t        *tracer
	instance string
	inner    serverClient
}

func (c tracedClient) Execute(ctx context.Context, req *queryRequest) (*queryResponse, error) {
	start := time.Now()
	resp, err := c.inner.Execute(ctx, req)
	end := time.Now()
	c.t.mu.Lock()
	c.t.calls = append(c.t.calls, callSpan{req.QueryID, c.instance, start, end})
	if err == nil && len(c.t.captured) < captureResponses {
		// The broker merges into the result it is handed; keep a copy.
		c.t.captured = append(c.t.captured, &queryResponse{Result: resp.Result.Clone(), Exceptions: resp.Exceptions, Trace: resp.Trace})
	}
	c.t.mu.Unlock()
	return resp, err
}

type tracedHandler struct {
	t        *tracer
	instance string
	inner    streamHandler
}

func (h tracedHandler) ExecuteStream(ctx context.Context, req *queryRequest, emit func(int, *intermediate) error) (*finalFrame, error) {
	hs := handleSpan{qid: req.QueryID, instance: h.instance, start: time.Now()}
	trailer, err := h.inner.ExecuteStream(ctx, req, func(seq int, res *intermediate) error {
		t0 := time.Now()
		err := emit(seq, res)
		hs.emit += time.Since(t0)
		return err
	})
	hs.end = time.Now()
	if trailer != nil {
		hs.queue, hs.exec = trailer.Trace[phaseQueue], trailer.Trace[phaseExecute]
	}
	h.t.mu.Lock()
	h.t.handles = append(h.t.handles, hs)
	h.t.mu.Unlock()
	return trailer, err
}

func (t *tracer) wrapClient(instance string, sc serverClient) serverClient {
	return tracedClient{t, instance, sc}
}

func (t *tracer) wrapHandler(instance string, h streamHandler) streamHandler {
	return tracedHandler{t, instance, h}
}

func (t *tracer) executor(b *pinotBroker) executor {
	return func(ctx context.Context, pql string) (*brokerResponse, error) {
		start := time.Now()
		resp, err := b.Execute(ctx, pql, "")
		end := time.Now()
		t.mu.Lock()
		t.roots = append(t.roots, rootSpan{start, end, resp})
		t.mu.Unlock()
		return resp, err
	}
}

// ---- assembling the span trees ----

// brokerPhases are the phases that partition the broker's wall clock, in
// the order the broker goes through them.
var brokerPhases = []struct {
	phase phaseKey
	name  string
}{
	{phaseParse, "pql.parse"},
	{phaseRoute, "broker.route"},
	{phaseScatter, "broker.scatter"},
	{phaseMerge, "broker.merge"},
	{phaseReduce, "broker.reduce"},
}

// tree turns the recordings into spans. The root and the client and server
// spans carry the real clock. The broker's phases come from the response's
// Trace, which has durations only, so they are laid end to end from the
// root's start in the order the broker runs them; self-time arithmetic needs
// durations and nesting, not their exact position.
func (t *tracer) tree(epoch time.Time) []span {
	ns := func(at time.Time) int64 { return at.Sub(epoch).Nanoseconds() }
	calls := map[string][]callSpan{}
	for _, c := range t.calls {
		calls[c.qid] = append(calls[c.qid], c)
	}
	// One query may call one server more than once (a hybrid table's two
	// halves, or the cacheable and the consuming portion of one table), so a
	// call owns the handler span that lies inside its own interval.
	handles := map[string][]handleSpan{}
	for _, h := range t.handles {
		handles[h.qid+"/"+h.instance] = append(handles[h.qid+"/"+h.instance], h)
	}
	within := func(c callSpan) (handleSpan, bool) {
		for _, h := range handles[c.qid+"/"+c.instance] {
			if !h.start.Before(c.start) && !h.end.After(c.end) {
				return h, true
			}
		}
		return handleSpan{}, false
	}
	var spans []span
	add := func(name string, q, parent int, start, end int64) int {
		spans = append(spans, span{name, q, parent, start, end})
		return len(spans) - 1
	}
	for qi, r := range t.roots {
		if r.resp == nil {
			continue
		}
		root := add("broker.execute", qi, -1, ns(r.start), ns(r.end))
		at := ns(r.start)
		trace := r.resp.Trace
		for _, ph := range brokerPhases {
			d := trace[ph.phase].Nanoseconds()
			if d == 0 {
				continue
			}
			id := add(ph.name, qi, root, at, at+d)
			at += d
			if ph.name != "broker.scatter" {
				continue
			}
			for _, c := range calls[r.resp.QueryID] {
				call := add("transport.call", qi, id, ns(c.start), ns(c.end))
				h, ok := within(c)
				if !ok {
					continue
				}
				srv := add("server.execute", qi, call, ns(h.start), ns(h.end))
				hat := ns(h.start)
				for _, part := range []struct {
					name string
					d    time.Duration
				}{{"server.queue", h.queue}, {"query.execute", h.exec - h.emit}, {"transport.emit", h.emit}} {
					if part.d > 0 {
						add(part.name, qi, srv, hat, hat+part.d.Nanoseconds())
						hat += part.d.Nanoseconds()
					}
				}
			}
		}
	}
	return spans
}

func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		rec := map[string]any{"id": i, "name": s.name, "query": s.query, "parent": s.parent, "start_ns": s.start, "end_ns": s.end}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- the traced run ----

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traced runs set-up once, one untraced latency pass, one traced latency
// pass of the same length, the production-path probe, then the direct probes.
func (r *runner) traced(outDir string) (*layers, error) {
	w := r.w
	r.keepBlobs = true
	if _, _, err := r.setUp(nil); err != nil {
		return nil, err
	}
	out := &layers{metrics: map[string]float64{}, samples: map[string]int{}}
	n := w.latLen()

	plain := r.runPass(w.next(1, n, 1))
	r.verify(&plain, false)
	out.set("runtime.gc_cycles_per_kq", 1000*float64(plain.gcs)/float64(n), n)
	out.set("runtime.gc_pause_ms_per_kq", 1000*float64(plain.gcPause)/1e6/float64(n), n)

	aggHits0, aggMiss0 := r.cacheCounts("aggregate")
	dictHits0, dictMiss0 := r.cacheCounts("dictexpr")
	tr := &tracer{}
	tp, err := newPlane(r.c, r.seed, tr.wrapHandler, tr.wrapClient)
	if err != nil {
		return nil, err
	}
	defer tp.Close()
	untraced := r.exec
	r.exec = tr.executor(tp.Broker)
	epoch := time.Now()
	queries := w.next(2, n, 1)
	pass := r.runPass(queries)
	r.exec = untraced
	resps := pass.resps
	pass.resps = append([]*brokerResponse(nil), resps...)
	r.verify(&pass, false)

	out.set("bench.trace_overhead_ratio", ratio(median(pass.lat), median(plain.lat)), n)
	aggHits1, aggMiss1 := r.cacheCounts("aggregate")
	dictHits1, dictMiss1 := r.cacheCounts("dictexpr")
	out.set("server.agg_cache_hit_ratio", ratio(aggHits1-aggHits0, aggHits1-aggHits0+aggMiss1-aggMiss0), int(aggHits1-aggHits0+aggMiss1-aggMiss0))
	out.set("server.dictexpr_cache_hit_ratio", ratio(dictHits1-dictHits0, dictHits1-dictHits0+dictMiss1-dictMiss0), int(dictHits1-dictHits0+dictMiss1-dictMiss0))
	if rc := tp.Broker.ResultCache(); rc != nil {
		out.set("qcache.result_bytes", float64(rc.Bytes()), 1)
	}
	out.set("qcache.evictions", float64(r.reg.Value("pinot_cache_evictions_total", "result", w.tables[0].cfg.Name)), 1)

	spans := tr.tree(epoch)
	if outDir == "" {
		outDir = ".bench_out"
	}
	if err := writeSpans(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.def.name, r.seed), spans); err != nil {
		return nil, err
	}
	r.fromSpans(out, spans)
	r.fromResponses(out, resps)
	if err := r.codecProbe(out, tr.captured); err != nil {
		return nil, err
	}
	hits, misses := float64(r.reg.Total("pinot_transport_pool_hits_total")), float64(r.reg.Total("pinot_transport_pool_misses_total"))
	out.set("transport.pool_reuse_ratio", ratio(hits, hits+misses), int(hits+misses))
	failed, attempted := r.productionPass(w.next(3, 3*n, 2))
	out.set("transport.production_failed_ratio", ratio(float64(failed), float64(attempted)), attempted)

	r.buildMetrics(out)
	sample := queries[0]
	if len(sample) > 64 {
		sample = sample[:64]
	}
	if err := r.directProbes(out, sample); err != nil {
		return nil, err
	}
	if err := r.ingestProbes(out); err != nil {
		return nil, err
	}
	out.set("controller.commits", float64(r.reg.Total("pinot_controller_segments_committed_total")), 1)
	return out, nil
}

// productionPass sends two clients' lists through the cluster's own broker,
// whose TCP clients get the broker's cancellable contexts, and returns how
// many queries came back errored or partial. Every measured pass goes through
// the plane, which hides that cancellation (see detached in adapter.go); this
// is the number that says what the hiding costs. The pass is a probe, not
// part of the workload: it leaves the run's attempted and failed counts alone.
func (r *runner) productionPass(lists [][]querySpec) (failed, attempted int) {
	exec, attempted0, failed0, firstErr := r.exec, r.attempted, r.failed, r.firstErr
	r.exec = brokerExecutor(r.c.Broker())
	p := r.runPass(lists)
	failed = r.failed - failed0
	r.exec, r.attempted, r.failed, r.firstErr = exec, attempted0, failed0, firstErr
	return failed, p.n()
}

func (r *runner) cacheCounts(tier string) (hits, misses float64) {
	for _, t := range r.w.tables {
		hits += float64(r.reg.Value("pinot_cache_hits_total", tier, t.cfg.Name))
		misses += float64(r.reg.Value("pinot_cache_misses_total", tier, t.cfg.Name))
	}
	return hits, misses
}

// fromSpans derives the time metrics: medians over the queries (or calls)
// of the traced pass of each span's self time or duration.
func (r *runner) fromSpans(out *layers, spans []span) {
	self := selfTimes(spans)
	byName := map[string][]float64{}
	rootWall := map[int]float64{}
	var rootSelf, wall float64
	slowestServer := map[int]float64{}
	for i, s := range spans {
		d := float64(s.end-s.start) / 1e3
		switch s.name {
		case "broker.execute":
			rootWall[s.query] = d
			byName["broker.self"] = append(byName["broker.self"], float64(self[i])/1e3)
			rootSelf += float64(self[i])
			wall += float64(s.end - s.start)
		case "transport.call":
			// Self time of the client's call span: what the round trip cost
			// beyond the server's own handling.
			byName["transport.wire"] = append(byName["transport.wire"], float64(self[i])/1e3)
		case "server.execute":
			byName[s.name] = append(byName[s.name], d)
			if d > slowestServer[s.query] {
				slowestServer[s.query] = d
			}
		default:
			byName[s.name] = append(byName[s.name], d)
		}
	}
	// A phase that did not occur in a query (no scatter on a full cache hit,
	// no queue without a tenant scheduler) counts as zero for that query.
	pad := func(xs []float64, n int) []float64 {
		for len(xs) < n {
			xs = append(xs, 0)
		}
		return xs
	}
	nq := len(rootWall)
	for metric, name := range map[string]string{
		"broker.route_us": "broker.route", "broker.scatter_us": "broker.scatter", "broker.merge_us": "broker.merge",
		"broker.reduce_us": "broker.reduce", "broker.self_us": "broker.self",
	} {
		out.set(metric, median(pad(byName[name], nq)), nq)
	}
	out.set("transport.wire_us", median(byName["transport.wire"]), len(byName["transport.wire"]))
	out.set("server.execute_us", median(byName["server.execute"]), len(byName["server.execute"]))
	out.set("server.queue_us", median(pad(byName["server.queue"], len(byName["server.execute"]))), len(byName["server.execute"]))
	// The workloads are meant to separate the layers; this is the number
	// that shows it: the slowest server's share of the median query.
	var shares []float64
	for q, w := range rootWall {
		shares = append(shares, ratio(slowestServer[q], w))
	}
	out.set("server.slowest_share_of_root", median(shares), len(shares))
	out.set("bench.trace_coverage_ratio", 1-ratio(rootSelf, wall), nq)
}

// fromResponses derives the exact counts every response carries.
func (r *runner) fromResponses(out *layers, resps []*brokerResponse) {
	var st queryStats
	var n, servers, hits float64
	for _, resp := range resps {
		if resp == nil {
			continue
		}
		n++
		servers += float64(resp.ServersQueried)
		if resp.Stats.ResultCacheHit {
			hits++
		}
		st.Merge(resp.Stats)
	}
	segs := float64(st.NumSegmentsQueried)
	out.set("broker.servers_per_query", ratio(servers, n), int(n))
	out.set("broker.segments_pruned_ratio", ratio(float64(st.SegmentsPrunedByBroker), segs), int(segs))
	out.set("broker.result_cache_hit_ratio", ratio(hits, n), int(n))
	out.set("query.docs_scanned_per_query", ratio(float64(st.NumDocsScanned), n), int(n))
	out.set("query.entries_scanned_per_query", ratio(float64(st.NumEntriesScanned), n), int(n))
	out.set("query.group_state_bytes_per_query", ratio(float64(st.GroupStateBytes), n), int(n))
	out.set("query.segments_pruned_ratio", ratio(float64(st.SegmentsPrunedByServer+st.SegmentsPrunedByValue), segs), int(segs))
	out.set("query.startree_segments_ratio", ratio(float64(st.StarTreeSegments), segs), int(segs))
	out.set("query.metadata_only_ratio", ratio(float64(st.MetadataOnlySegments), segs), int(segs))
	out.set("startree.records_scanned_ratio", ratio(float64(st.StarTreeRecordsScanned), float64(st.StarTreeRawDocs)), int(st.StarTreeRawDocs))
}

// timeEach returns the median duration of f over the inputs 0..n-1.
func timeEach(n int, f func(i int) error) (time.Duration, error) {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0).Nanoseconds())
	}
	return time.Duration(median(ds)), nil
}

// codecProbe encodes and decodes the server responses captured during the
// traced pass, directly.
func (r *runner) codecProbe(out *layers, captured []*queryResponse) error {
	n := len(captured)
	if n == 0 {
		return nil
	}
	blobs := make([][]byte, n)
	enc, err := timeEach(n, func(i int) (err error) { blobs[i], err = encodeResponse(captured[i]); return err })
	if err != nil {
		return err
	}
	dec, err := timeEach(n, func(i int) error { _, err := decodeResponse(blobs[i]); return err })
	if err != nil {
		return err
	}
	var bytes float64
	for _, b := range blobs {
		bytes += float64(len(b))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range captured {
		b, err := encodeResponse(captured[i])
		if err != nil {
			return err
		}
		if _, err := decodeResponse(b); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	out.set("transport.encode_us", us(enc), n)
	out.set("transport.decode_us", us(dec), n)
	out.set("transport.bytes_per_response", bytes/float64(n), n)
	out.set("transport.allocs_per_roundtrip", float64(m1.Mallocs-m0.Mallocs)/float64(n), n)
	return nil
}

// buildMetrics reports what the set-up measured while building and loading
// the segments.
func (r *runner) buildMetrics(out *layers) {
	var rate, marshal, bytesPerRow, online, tree []float64
	for _, b := range r.built {
		rate = append(rate, float64(b.rows)/b.build.Seconds())
		marshal = append(marshal, ms(b.marshal))
		bytesPerRow = append(bytesPerRow, float64(b.bytes)/float64(b.rows))
		online = append(online, ms(b.online))
		if b.starTree > 0 {
			tree = append(tree, ms(b.starTree))
		}
	}
	out.set("segment.build_rows_per_s", median(rate), len(rate))
	out.set("segment.marshal_ms", median(marshal), len(marshal))
	out.set("segment.bytes_per_row", median(bytesPerRow), len(bytesPerRow))
	out.set("controller.upload_to_online_ms", median(online), len(online))
	out.set("startree.build_ms", median(tree), len(tree))
}

// directProbes calls single packages directly, over the first table's
// segments as built by the set-up and a sample of the traced pass's queries.
func (r *runner) directProbes(out *layers, sample []querySpec) error {
	w := r.w
	ctx := context.Background()
	t := &w.tables[0]

	parse, err := timeEach(len(sample), func(i int) error { _, err := parseCanonical(sample[i].pql); return err })
	if err != nil {
		return err
	}
	out.set("pql.parse_us", us(parse), len(sample))

	var segs []indexedSegment
	var unmarshal []float64
	for _, b := range r.built {
		if b.table != 0 {
			continue
		}
		t0 := time.Now()
		is, err := loadIndexed(b.blob)
		if err != nil {
			return err
		}
		unmarshal = append(unmarshal, ms(time.Since(t0)))
		segs = append(segs, is)
	}
	out.set("segment.unmarshal_ms", median(unmarshal), len(unmarshal))

	var docs, nanos float64
	exec, err := timeEach(len(sample), func(i int) error {
		t0 := time.Now()
		res, err := runDirect(ctx, sample[i].pql, segs, t.d.sch)
		if err != nil {
			return err
		}
		nanos += float64(time.Since(t0).Nanoseconds())
		docs += float64(res.Stats.NumDocsScanned)
		return nil
	})
	if err != nil {
		return err
	}
	out.set("query.exec_us", us(exec), len(sample))
	out.set("query.ns_per_doc_scanned", ratio(nanos, docs), int(docs))

	var merges, finals []float64
	for i := range sample {
		parts, finalize, err := segmentPartials(ctx, sample[i].pql, segs, t.d.sch)
		if err != nil {
			return err
		}
		t0 := time.Now()
		merged := parts[0]
		for _, p := range parts[1:] {
			if err := merged.Merge(p); err != nil {
				return err
			}
		}
		t1 := time.Now()
		finalize(merged)
		merges = append(merges, us(t1.Sub(t0)))
		finals = append(finals, us(time.Since(t1)))
	}
	out.set("query.merge_us", median(merges), len(merges))
	out.set("query.finalize_us", median(finals), len(finals))

	rows := t.d.rows(0, atLeast(t.perSeg/5, 200))
	add, seal, err := sealMutable(t.d.table, t.d.sch, rows)
	if err != nil {
		return err
	}
	out.set("segment.mutable_add_rows_per_s", float64(len(rows))/add.Seconds(), len(rows))
	out.set("segment.seal_ms", ms(seal), 1)

	// The result cache, with the keys and values it holds in production:
	// canonical query text and a merged per-query intermediate.
	cache := newProbeCache(newRegistry())
	keys := make([]string, len(sample))
	vals := make([]*intermediate, len(sample))
	for i := range sample {
		if keys[i], err = parseCanonical(sample[i].pql); err != nil {
			return err
		}
		parts, _, err := segmentPartials(ctx, sample[i].pql, segs[:1], t.d.sch)
		if err != nil {
			return err
		}
		vals[i] = parts[0]
	}
	put, _ := timeEach(len(sample), func(i int) error { cache.Put(t.d.table, t.d.table, keys[i], vals[i], vals[i].SizeBytes()); return nil })
	get, _ := timeEach(len(sample), func(i int) error { cache.Get(t.d.table, t.d.table, keys[i]); return nil })
	out.set("qcache.put_ns", float64(put.Nanoseconds()), len(sample))
	out.set("qcache.get_ns", float64(get.Nanoseconds()), len(sample))

	topic, err := r.c.Streams.CreateTopic("benchprobe", 1)
	if err != nil {
		return err
	}
	payload := []byte(`{"category":"cat00","region":"region0","value":1.5,"ts":10000}`)
	produce, err := timeEach(2000, func(int) error { _, err := topic.ProduceTo(0, nil, payload); return err })
	if err != nil {
		return err
	}
	out.set("stream.produce_ns", float64(produce.Nanoseconds()), 2000)
	return nil
}

// ingestProbes measures the write side alone, with no queries beside it:
// how fast consumers drain a burst, how long a seal takes from the flush
// threshold to ONLINE, and how soon a produced row is visible to a query.
// Only hybrid_ingest has a write side; elsewhere the three metrics are 0.
func (r *runner) ingestProbes(out *layers) error {
	h := r.w.hybrid
	if h == nil {
		return nil
	}
	if err := h.drain(r.c, 60*time.Second); err != nil {
		return err
	}
	// A burst that stops short of either partition's next flush.
	burst := h.flush
	for _, s := range h.streams {
		if left := h.flush - s.sent()%h.flush - 1; left < burst {
			burst = left
		}
	}
	t0 := time.Now()
	for p := range h.streams {
		if err := h.send(p, burst); err != nil {
			return err
		}
	}
	if err := h.drain(r.c, 60*time.Second); err != nil {
		return err
	}
	out.set("server.consume_rows_per_s", float64(eventsPartition*burst)/time.Since(t0).Seconds(), eventsPartition*burst)

	// Push each partition over its flush threshold and wait for the seal
	// to commit and come ONLINE.
	var seals []float64
	for p, s := range h.streams {
		if err := h.send(p, h.flush-s.sent()%h.flush); err != nil {
			return err
		}
		t0 := time.Now()
		if err := h.drain(r.c, 60*time.Second); err != nil {
			return err
		}
		seals = append(seals, ms(time.Since(t0)))
	}
	out.set("server.seal_ms", median(seals), len(seals))

	// Freshness: a marker row on a tick of its own, far above any window,
	// polled with a point query until it is counted.
	const markers = 200
	ctx := context.Background()
	fresh := make([]float64, 0, markers)
	for i := 0; i < markers; i++ {
		tick := eventsBoundary + 1000000 + i
		msg := []byte(fmt.Sprintf(`{"category":"cat00","region":"region00","value":1,"ts":%d}`, tick))
		q := fmt.Sprintf("SELECT count(*) FROM %s WHERE ts = %d", h.rtCfg.Name, tick)
		t0 := time.Now()
		if _, err := h.topic.ProduceTo(i%eventsPartition, nil, msg); err != nil {
			return err
		}
		for {
			resp, err := r.exec(ctx, q)
			if err != nil {
				return err
			}
			if toFloat(resp.Rows[0][0]) >= 1 {
				break
			}
			if time.Since(t0) > 10*time.Second {
				return fmt.Errorf("hybrid_ingest: marker row %d not visible after 10 s", i)
			}
		}
		fresh = append(fresh, ms(time.Since(t0)))
	}
	out.set("server.freshness_p50_ms", median(fresh), len(fresh))
	return nil
}

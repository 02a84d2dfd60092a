package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// stopwatch sums the intervals the system under test is working; the
// harness pauses it around its own work (row rendering, answer checking).
type stopwatch struct {
	total time.Duration
	since time.Time
}

func (s *stopwatch) start() { s.since = time.Now() }
func (s *stopwatch) stop()  { s.total += time.Since(s.since) }

// executor is how a pass reaches the system: the cluster's own broker, or
// the traced plane's broker in a traced pass.
type executor func(ctx context.Context, pql string) (*brokerResponse, error)

// runner drives one workload through one process lifetime.
type runner struct {
	w    *workload
	seed int64

	reg   *metricRegistry
	c     *pinotCluster
	plane *plane
	exec  executor

	attempted int
	failed    int
	firstErr  error
	// checked holds the templates the oracle has already verified in this
	// run; the first query of any new template is always verified.
	checked map[string]bool

	// built records the last set-up's per-segment build timings; the traced
	// run reports them and keeps the blobs for its direct probes.
	built     []segBuild
	keepBlobs bool
}

// segBuild is what building and loading one offline segment took.
type segBuild struct {
	table    int
	rows     int
	build    time.Duration // Builder.Add + Build
	starTree time.Duration // startree.Build + Marshal, zero without a star-tree
	marshal  time.Duration
	online   time.Duration // UploadSegment until ONLINE on every replica
	bytes    int
	blob     []byte // kept only when keepBlobs is set
}

func newRunner(def *workloadDef, seed int64, sz sizes) *runner {
	return &runner{w: def.build(def, seed, sz), seed: seed, checked: map[string]bool{}}
}

func (r *runner) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// passResult is what one pass measured. Latencies are in milliseconds, in
// issue order per client, clients concatenated.
type passResult struct {
	lat     []float64
	resps   []*brokerResponse // parallel to lat
	queries []querySpec       // parallel to lat
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	gcs     uint32
	gcPause uint64
}

func (p *passResult) n() int { return len(p.lat) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPass issues every client's list in order, each client closed-loop, and
// measures the pass as a whole. Nothing is checked here; see verify.
func (r *runner) runPass(lists [][]querySpec) passResult {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	res := passResult{
		lat:     make([]float64, total),
		resps:   make([]*brokerResponse, total),
		queries: make([]querySpec, 0, total),
	}
	for _, l := range lists {
		res.queries = append(res.queries, l...)
	}
	errs := make([]error, total)
	ctx := context.Background()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	var wg sync.WaitGroup
	base := 0
	for client, list := range lists {
		wg.Add(1)
		go func(client, base int, list []querySpec) {
			defer wg.Done()
			for i := range list {
				if h := r.w.hybrid; h != nil {
					if err := h.before(client, len(lists)); err != nil {
						errs[base+i] = err
						continue
					}
				}
				s := time.Now()
				resp, err := r.exec(ctx, list[i].pql)
				res.lat[base+i] = float64(time.Since(s).Nanoseconds()) / 1e6
				res.resps[base+i], errs[base+i] = resp, err
			}
		}(client, base, list)
		base += len(list)
	}
	wg.Wait()
	res.wall = time.Since(t0)
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	res.alloc = m1.TotalAlloc - m0.TotalAlloc
	res.gcs = m1.NumGC - m0.NumGC
	res.gcPause = m1.PauseTotalNs - m0.PauseTotalNs

	for i, err := range errs {
		r.attempted++
		resp := res.resps[i]
		switch {
		case err != nil:
			r.fail(fmt.Errorf("%s: %w", res.queries[i].pql, err))
		case resp.Partial || resp.ServersResponded < resp.ServersQueried:
			r.fail(fmt.Errorf("%s: partial result (%d/%d servers, %v)", res.queries[i].pql,
				resp.ServersResponded, resp.ServersQueried, resp.Exceptions))
		}
	}
	return res
}

// verify checks answers against the oracle, off the clock: every query when
// all is set (the warm-up pass), otherwise every stride-th query plus the
// first query of each template this run has not verified yet.
func (r *runner) verify(p *passResult, all bool) {
	stride := p.n() / 16
	if stride < 1 {
		stride = 1
	}
	for i := range p.queries {
		q := &p.queries[i]
		if p.resps[i] == nil || !(all || i%stride == 0 || !r.checked[q.template]) {
			continue
		}
		r.checked[q.template] = true
		if err := r.w.oracle.check(q, p.resps[i].Rows); err != nil {
			r.fail(fmt.Errorf("wrong answer: %w", err))
		}
	}
	p.resps = nil
}

// waitOnline blocks until `segments` segments of a resource are ONLINE on
// `replicas` instances each.
func waitOnline(c *pinotCluster, resource string, segments, replicas int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if fullyOnline(c, resource, replicas) >= segments {
			return nil
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("%s: %d segments not ONLINE x%d within %v", resource, segments, replicas, timeout)
}

// setUp starts a cluster, loads the workload's tables and runs the warm-up
// pass; it returns the seconds the system spent on that. Build order is
// fixed and single-threaded: each segment is built, uploaded and awaited
// before the next one starts.
func (r *runner) setUp(warm [][]querySpec) (seconds float64, warmOut [][]querySpec, err error) {
	w := r.w
	runtime.GC()
	var sw stopwatch
	sw.start()
	r.reg = newRegistry()
	c, err := newCluster(w.def.servers, r.reg)
	if err != nil {
		return 0, nil, err
	}
	r.c = c
	if r.plane, err = newPlane(c, r.seed, nil, nil); err != nil {
		return 0, nil, err
	}
	r.exec = brokerExecutor(r.plane.Broker)
	r.built = r.built[:0]
	for ti := range w.tables {
		t := &w.tables[ti]
		cfg := t.cfg
		if err := c.AddTable(&cfg); err != nil {
			return 0, nil, err
		}
		res := resourceName(cfg.Name, false)
		for s := 0; s < t.segs; s++ {
			sw.stop()
			rows := t.d.rows(s*t.perSeg, (s+1)*t.perSeg)
			sw.start()
			sb := segBuild{table: ti, rows: len(rows)}
			mark := time.Now()
			lap := func() time.Duration {
				d := time.Since(mark)
				mark = time.Now()
				return d
			}
			seg, err := buildSegment(cfg.Name, fmt.Sprintf("%s_%d", cfg.Name, s), t.d.sch, t.idx, rows)
			if err != nil {
				return 0, nil, err
			}
			sb.build = lap()
			if cfg.StarTree != nil {
				data, err := buildStarTree(seg, *cfg.StarTree)
				if err != nil {
					return 0, nil, err
				}
				seg.SetStarTreeData(data)
				sb.starTree = lap()
			}
			blob, err := seg.Marshal()
			if err != nil {
				return 0, nil, err
			}
			sb.marshal, sb.bytes = lap(), len(blob)
			if err := c.UploadSegment(res, blob); err != nil {
				return 0, nil, err
			}
			if err := waitOnline(c, res, s+1, cfg.Replicas, 30*time.Second); err != nil {
				return 0, nil, err
			}
			sb.online = lap()
			if r.keepBlobs {
				sb.blob = blob
			}
			r.built = append(r.built, sb)
		}
	}
	if h := w.hybrid; h != nil {
		h.reg = r.reg
		for _, s := range h.streams {
			s.n.Store(0)
		}
		if h.topic, err = c.Streams.CreateTopic(h.rtCfg.StreamTopic, eventsPartition); err != nil {
			return 0, nil, err
		}
		cfg := h.rtCfg
		if err := c.AddTable(&cfg); err != nil {
			return 0, nil, err
		}
		if err := c.WaitForConsuming(resourceName(cfg.Name, true), eventsPartition, 30*time.Second); err != nil {
			return 0, nil, err
		}
		for p, n := range h.preload {
			if err := h.send(p, n); err != nil {
				return 0, nil, err
			}
		}
		if err := h.drain(c, 30*time.Second); err != nil {
			return 0, nil, err
		}
	}
	if warm == nil {
		sw.stop()
		warm = w.next(0, w.latLen(), 1)
		sw.start()
	}
	p := r.runPass(warm)
	sw.stop()
	r.verify(&p, true)
	return sw.total.Seconds(), warm, nil
}

func brokerExecutor(b *pinotBroker) executor {
	return func(ctx context.Context, pql string) (*brokerResponse, error) { return b.Execute(ctx, pql, "") }
}

func (r *runner) tearDown() {
	if r.plane != nil {
		r.plane.Close()
		r.plane = nil
	}
	if r.c != nil {
		r.c.Shutdown()
		r.c = nil
	}
}

// endToEnd is one run's end-to-end metrics plus the sample counts behind
// them.
type endToEnd struct {
	metrics map[string]float64
	samples map[string]int
}

// measure runs the whole protocol: set-up (setupRepeats times, median),
// latency phase, throughput phase, end-of-run readings.
func (r *runner) measure() (*endToEnd, error) {
	w := r.w
	var setups []float64
	var warm [][]querySpec
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			r.tearDown()
		}
		s, wq, err := r.setUp(warm)
		if err != nil {
			return nil, err
		}
		warm = wq
		setups = append(setups, s)
	}

	var pooled, p50s, cpus, allocs []float64
	for pass := 1; pass <= latencyPasses; pass++ {
		p := r.runPass(w.next(pass, w.latLen(), 1))
		pooled = append(pooled, p.lat...)
		p50s = append(p50s, median(p.lat))
		cpus = append(cpus, float64(p.cpu.Nanoseconds())/1e6/float64(p.n()))
		allocs = append(allocs, float64(p.alloc)/1024/float64(p.n()))
		r.verify(&p, false)
	}
	var qps []float64
	for pass := 0; pass < throughputPasses; pass++ {
		p := r.runPass(w.next(1+latencyPasses+pass, w.thrLen(), 2))
		qps = append(qps, float64(p.n())/p.wall.Seconds())
		r.verify(&p, false)
	}

	out := &endToEnd{
		metrics: map[string]float64{
			"setup_s":            median(setups),
			"query_p50_ms":       median(p50s),
			"query_p99_ms":       percentile(pooled, 99),
			"throughput_qps":     median(qps),
			"cpu_ms_per_query":   median(cpus),
			"alloc_kb_per_query": median(allocs),
		},
		samples: map[string]int{
			"setup_s":            len(setups),
			"query_p50_ms":       len(p50s),
			"query_p99_ms":       len(pooled),
			"throughput_qps":     len(qps),
			"cpu_ms_per_query":   len(cpus),
			"alloc_kb_per_query": len(allocs),
			"live_heap_mb":       1,
		},
	}
	if err := r.finish(out); err != nil {
		return nil, err
	}
	return out, nil
}

// finish takes the end-of-run readings: for hybrid_ingest the drain and the
// row-conservation check, then stored bytes per row and the live heap with
// the harness's own rows released.
func (r *runner) finish(out *endToEnd) error {
	w := r.w
	if h := w.hybrid; h != nil {
		if err := h.drain(r.c, 60*time.Second); err != nil {
			return err
		}
		// Row conservation: the offline rows below the boundary plus every
		// event sent, no more and no fewer.
		want := int64(w.oracle.d.n-h.streams[0].d.n-h.streams[1].d.n) + h.produced()
		r.attempted++
		resp, err := r.exec(context.Background(), "SELECT count(*) FROM "+h.rtCfg.Name)
		switch {
		case err != nil:
			r.fail(err)
		case resp.Partial || toFloat(resp.Rows[0][0]) != float64(want):
			r.fail(fmt.Errorf("row conservation: count(*) = %v (partial=%v), want %d", resp.Rows[0][0], resp.Partial, want))
		}
		if ms := h.stalls.Load(); ms > 0 {
			fmt.Fprintf(os.Stderr, "hybrid_ingest: producers waited %d ms for consumers\n", ms)
		}
	}
	bytes, rows, segs, err := storedSegments(r.c)
	if err != nil {
		return err
	}
	out.metrics["stored_bytes_per_row"] = float64(bytes) / float64(rows)
	out.samples["stored_bytes_per_row"] = segs

	r.w.oracle, r.w.tables, r.w.next, r.w.hybrid = nil, nil, nil, nil
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	out.metrics["live_heap_mb"] = float64(m.HeapAlloc) / (1 << 20)
	return nil
}

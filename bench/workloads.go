package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"
)

// sizes scales a run. Rows scale only in -smoke runs (the tests); the pass
// scale follows -seconds, so work is fixed by operation count for any given
// command line and never by a clock.
type sizes struct {
	rows float64
	pass float64
}

func (s sizes) nrows(n int) int { return atLeast(int(float64(n)*s.rows), 200) }
func (s sizes) npass(n int) int { return atLeast(int(float64(n)*s.pass), 8) }

func atLeast(n, min int) int {
	if n < min {
		return min
	}
	return n
}

const (
	latencyPasses    = 11
	throughputPasses = 5
	setupRepeats     = 3
	// minPooledSamples is the smallest latency-phase sample query_p99_ms may
	// be read from.
	minPooledSamples = 1500
)

// workloadDef is one workload's fixed description. latLen is the length of
// a latency pass and thrLen of one client's list in a throughput pass, both
// at pass scale 1.
type workloadDef struct {
	name    string
	why     string
	servers int
	latLen  int
	thrLen  int
	build   func(def *workloadDef, seed int64, sz sizes) *workload
}

var workloadDefs = []*workloadDef{
	{
		name:    "scan_groupby",
		why:     "distinct filtered group-bys over unindexed segments: query+segment do the work, every cache tier misses",
		servers: 2, latLen: 170, thrLen: 70, build: buildScan,
	},
	{
		name:    "dashboard_zipf",
		why:     "Zipf-repeated star-tree dashboards on a rolling window: qcache, pql and broker carry the median, the scan path is bypassed",
		servers: 2, latLen: 4400, thrLen: 2200, build: buildDash,
	},
	{
		name:    "lookup_fanout",
		why:     "never-repeating sorted-column lookups fanned out to 3 servers: pql, broker scatter/merge and transport dominate",
		servers: 3, latLen: 1300, thrLen: 1000, build: buildLookup,
	},
	{
		name:    "hybrid_ingest",
		why:     "hybrid table queried while events stream in and segments seal: reads beside writes, cache invalidation on seal",
		servers: 2, latLen: 400, thrLen: 200, build: buildHybrid,
	},
}

func findWorkload(name string) *workloadDef {
	for _, d := range workloadDefs {
		if d.name == name {
			return d
		}
	}
	return nil
}

// offlineTable is one batch-built table: segment s holds rows
// [s*perSeg, (s+1)*perSeg) of d.
type offlineTable struct {
	d      *dataset
	cfg    tableConfig
	segs   int
	perSeg int
	idx    indexConfig
}

// workload is a built workload: its rows, its oracle and its query stream.
type workload struct {
	def    *workloadDef
	sz     sizes
	tables []offlineTable
	oracle *oracle
	// next returns each client's query list for pass `index` (0 is the
	// warm-up pass). It is called once per pass, in pass order.
	next   func(index, n, clients int) [][]querySpec
	hybrid *hybridIngest
}

func (w *workload) latLen() int { return w.sz.npass(w.def.latLen) }
func (w *workload) thrLen() int { return w.sz.npass(w.def.thrLen) }

// perClient draws one list per client from a generator, client 0 first.
func perClient(clients int, next func() []querySpec) [][]querySpec {
	out := make([][]querySpec, clients)
	for c := range out {
		out[c] = next()
	}
	return out
}

func buildScan(def *workloadDef, seed int64, sz sizes) *workload {
	r := rand.New(rand.NewSource(seed))
	const segs = 8
	per := sz.nrows(100000)
	d := metricsDataset(r, segs*per)
	g := newScanGen(d, r)
	return &workload{
		def: def, sz: sz,
		tables: []offlineTable{{d: d, segs: segs, perSeg: per,
			cfg: tableConfig{Name: d.table, Type: tableOffline, Schema: d.sch, Replicas: 1}}},
		oracle: newOracle(d, "metricName"),
		next: func(_, n, clients int) [][]querySpec {
			return perClient(clients, func() []querySpec { return g.next(n) })
		},
	}
}

func buildDash(def *workloadDef, seed int64, sz sizes) *workload {
	r := rand.New(rand.NewSource(seed))
	const segs = 4
	per := sz.nrows(100000)
	d := metricsDataset(r, segs*per)
	dims := []string{"metricName", "country", "platform", "fabric", "browser"}
	st := &starTreeConfig{
		DimensionSplitOrder: []string{"metricName", "day", "country", "platform", "fabric", "browser"},
		Metrics:             []string{"value", "count"},
		MaxLeafRecords:      1000,
	}
	// 1100 templates, fewer only in shorter runs: with the Zipf profile a
	// pass of 4400 then hits 0.81 of the time. There cannot be more than 1200:
	// a fifteenth of the ranks share one shape without a country or platform
	// filter, and such a shape has 80 distinct forms, one per metric name.
	templates := 1100
	if sz.pass < 1 {
		templates = atLeast(int(1100*sz.pass), 40)
	}
	g := newDashGen(d, r, templates)
	return &workload{
		def: def, sz: sz,
		tables: []offlineTable{{d: d, segs: segs, perSeg: per, idx: indexConfig{InvertedColumns: dims},
			cfg: tableConfig{Name: d.table, Type: tableOffline, Schema: d.sch, Replicas: 1, InvertedColumns: dims, StarTree: st}}},
		oracle: newOracle(d, "metricName"),
		next: func(index, n, clients int) [][]querySpec {
			return perClient(clients, func() []querySpec { return g.next(n, index) })
		},
	}
}

func buildLookup(def *workloadDef, seed int64, sz sizes) *workload {
	r := rand.New(rand.NewSource(seed))
	const segs = 12
	per := sz.nrows(50000)
	// Enough members for every pass of a run to draw without replacement,
	// few enough rows per member that LIMIT never truncates.
	members := atLeast(segs*per/20, (1+latencyPasses)*sz.npass(def.latLen)+2*throughputPasses*sz.npass(def.thrLen))
	d := impressionsDataset(r, segs*per, members)
	g := newLookupGen(d, r, members)
	return &workload{
		def: def, sz: sz,
		tables: []offlineTable{{d: d, segs: segs, perSeg: per, idx: indexConfig{SortColumn: "memberId"},
			cfg: tableConfig{Name: d.table, Type: tableOffline, Schema: d.sch, Replicas: 2, SortColumn: "memberId"}}},
		oracle: newOracle(d, "memberId"),
		next: func(_, n, clients int) [][]querySpec {
			return perClient(clients, func() []querySpec { return g.next(n) })
		},
	}
}

// hybridIngest is the write side of hybrid_ingest: two pre-generated
// partition streams sent in lockstep with the queries.
type hybridIngest struct {
	streams  [eventsPartition]*eventStream
	preload  [eventsPartition]int
	perQuery int // events per partition before each latency-phase query
	flush    int // FlushThresholdRows
	margin   int // ticks every query window stays behind the partition clocks
	rtCfg    tableConfig

	topic  *streamTopic
	reg    *metricRegistry
	stalls atomic.Int64 // milliseconds producers waited for consumers
}

func buildHybrid(def *workloadDef, seed int64, sz sizes) *workload {
	r := rand.New(rand.NewSource(seed))
	const segs = 4
	per := sz.nrows(50000)
	off := eventsOffline(r, segs, per)

	lat, thr := sz.npass(def.latLen), sz.npass(def.thrLen)
	h := &hybridIngest{perQuery: 20}
	// Flush threshold and preloads are sized from the pass plan so that the
	// two partitions seal at different query indexes and at least three
	// seals commit inside the latency phase.
	perPartition := (1+latencyPasses)*lat*h.perQuery + throughputPasses*thr*2*h.perQuery
	h.flush = atLeast(perPartition/5, 10*eventsPerTick)
	// Partition 1 is preloaded less and starts its clock later by exactly
	// the difference, so both clocks read the same tick once the preloads
	// are in.
	preloadTicks := h.flush * 9 / 10 / eventsPerTick
	lead := preloadTicks * 4 / 9
	h.preload = [eventsPartition]int{preloadTicks * eventsPerTick, (preloadTicks - lead) * eventsPerTick}
	h.margin = preloadTicks / 2
	for p := range h.streams {
		start := eventsBoundary
		if p == 1 {
			start += lead
		}
		h.streams[p] = newEventStream(r, start, h.preload[p]+perPartition)
	}
	h.rtCfg = tableConfig{Name: off.table, Type: tableRealtime, Schema: off.sch, Replicas: 1,
		StreamTopic: "events", FlushThresholdRows: h.flush}

	// The oracle sees what the broker's hybrid rewrite serves: offline rows
	// strictly below the boundary tick, and every realtime event.
	cols, specs := eventsColumns()
	all := newDataset(off.table, cols, specs)
	ts := off.col("ts")
	for i := 0; i < off.n; i++ {
		if off.data[ts][i] < eventsBoundary {
			all.appendRow(off.data[0][i], off.data[1][i], off.data[2][i], off.data[3][i])
		}
	}
	for _, s := range h.streams {
		for c := range all.data {
			all.data[c] = append(all.data[c], s.d.data[c]...)
		}
		all.n += s.d.n
	}

	g := newHybridGen(all, r, eventsBoundary+preloadTicks, h.margin)
	return &workload{
		def: def, sz: sz, hybrid: h,
		tables: []offlineTable{{d: off, segs: segs, perSeg: per,
			cfg: tableConfig{Name: off.table, Type: tableOffline, Schema: off.sch, Replicas: 1}}},
		oracle: newOracle(all, "ts"),
		next: func(_, n, clients int) [][]querySpec {
			base := h.clock()
			clock := func(i int) int { return base + (i+1)*h.perQuery/eventsPerTick }
			if clients > 1 {
				// Two clients advance their partitions at their own pace, so
				// a window may only rely on what was sent before the pass.
				clock = func(int) int { return base }
			}
			return perClient(clients, func() []querySpec { return g.next(n, clock) })
		},
	}
}

// clock is the slowest partition clock.
func (h *hybridIngest) clock() int {
	c := h.streams[0].now()
	if n := h.streams[1].now(); n < c {
		c = n
	}
	return c
}

func (h *hybridIngest) produced() int64 { return h.streams[0].n.Load() + h.streams[1].n.Load() }

func (h *hybridIngest) consumed() int64 {
	return h.reg.Total("pinot_consumer_rows_consumed_total")
}

func (h *hybridIngest) send(p, n int) error {
	s := h.streams[p]
	for i := 0; i < n; i++ {
		if _, err := h.topic.ProduceTo(p, nil, s.json(s.sent())); err != nil {
			return err
		}
		s.n.Add(1)
	}
	return nil
}

// before sends the events that precede one query: in the latency phase the
// single client feeds both partitions, in the throughput phase each client
// owns one partition, which keeps per-partition order — and so the sealed
// segments — a function of the seed.
func (h *hybridIngest) before(client, clients int) error {
	// Back-pressure far below the window margin: no query looks at the
	// newest margin ticks, so while consumers stay within half of that the
	// answers are a function of the query index alone.
	for h.produced()-h.consumed() > int64(h.margin*eventsPerTick/2) {
		h.stalls.Add(1)
		time.Sleep(time.Millisecond)
	}
	if clients == 1 {
		for p := range h.streams {
			if err := h.send(p, h.perQuery); err != nil {
				return err
			}
		}
		return nil
	}
	return h.send(client, 2*h.perQuery)
}

// expectedCommits is how many seals must have committed once everything
// sent has been consumed.
func (h *hybridIngest) expectedCommits() int64 {
	var n int64
	for _, s := range h.streams {
		n += int64(s.sent() / h.flush)
	}
	return n
}

// drain waits until every sent event is consumed and every due seal has
// committed and is being served.
func (h *hybridIngest) drain(c *pinotCluster, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	rt := resourceName(h.rtCfg.Name, true)
	for time.Now().Before(deadline) {
		if h.consumed() == h.produced() &&
			h.reg.Total("pinot_controller_segments_committed_total") == h.expectedCommits() &&
			int64(fullyOnline(c, rt, 1)) == h.expectedCommits() {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("hybrid_ingest: not drained after %v: produced %d consumed %d commits %d/%d",
		timeout, h.produced(), h.consumed(), h.reg.Total("pinot_controller_segments_committed_total"), h.expectedCommits())
}

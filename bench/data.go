package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
)

// The benchmark owns its rows and its queries: everything below derives
// from -seed through math/rand's seeded generator and nothing else, so an
// edit to the repo's own workload package cannot change the input.
//
// Rows are held column-major as small integer codes. A string column's code
// indexes its name list, a long column's code is the value, and a double
// column's code is the value in eighths, so every sum is exact in float64 no
// matter in which order servers and brokers merge partial sums.

type colType uint8

const (
	colString colType = iota
	colLong
	colDouble // value = code / 8
)

type column struct {
	name  string
	typ   colType
	names []string // colString only
}

// dataset is one table's generated rows plus the schema they are built with.
type dataset struct {
	table string
	cols  []column
	sch   *schema
	data  [][]int32 // [column][row]
	n     int
}

func newDataset(table string, cols []column, specs []fieldSpec) *dataset {
	sch, err := newSchema(table, specs)
	if err != nil {
		panic(err) // the schemas are constants of this file
	}
	return &dataset{table: table, cols: cols, sch: sch, data: make([][]int32, len(cols))}
}

func (d *dataset) appendRow(codes ...int32) {
	for c, v := range codes {
		d.data[c] = append(d.data[c], v)
	}
	d.n++
}

func (d *dataset) col(name string) int {
	for i, c := range d.cols {
		if c.name == name {
			return i
		}
	}
	panic("bench: no column " + name)
}

// value renders a code as the canonical Go value the engine stores and
// returns for it.
func (c *column) value(code int32) any {
	switch c.typ {
	case colString:
		return c.names[code]
	case colDouble:
		return float64(code) / 8
	}
	return int64(code)
}

// literal renders a code as a PQL literal.
func (c *column) literal(code int32) string {
	switch c.typ {
	case colString:
		return "'" + c.names[code] + "'"
	case colDouble:
		return fmt.Sprint(float64(code) / 8)
	}
	return fmt.Sprint(code)
}

func (d *dataset) row(i int) segRow {
	r := make(segRow, len(d.cols))
	for c := range d.cols {
		r[c] = d.cols[c].value(d.data[c][i])
	}
	return r
}

func (d *dataset) rows(lo, hi int) []segRow {
	out := make([]segRow, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, d.row(i))
	}
	return out
}

// checksum digests every code in row order; two runs with one seed must
// agree on it.
func (d *dataset) checksum() uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, col := range d.data {
		for _, v := range col {
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%02d", prefix, i)
	}
	return out
}

// ---- query specifications ----

type aggFn uint8

const (
	aggSum aggFn = iota
	aggCount
	aggMin
	aggMax
)

var aggNames = [...]string{"sum", "count", "min", "max"}

// cond is lo <= column <= hi over codes; equality has lo == hi. String
// columns only ever take equality, where code order is irrelevant.
type cond struct {
	col    int
	lo, hi int32
}

type aggSpec struct {
	fn  aggFn
	col int // -1 for count(*)
}

// querySpec is one query in the form the generators emit: the PQL text sent
// to the broker and the structure the oracle evaluates. template names the
// shape (which clauses are present), not the parameter values.
type querySpec struct {
	pql      string
	template string
	conds    []cond
	aggs     []aggSpec
	groupBy  []int
	top      int
	selCols  []int // selection queries
	limit    int
}

// render fills q.pql and q.template from the structure, in one fixed
// syntactic form so that distinct structures give distinct canonical forms.
func (d *dataset) render(q *querySpec) {
	var sb, tpl strings.Builder
	sb.WriteString("SELECT ")
	if len(q.selCols) > 0 {
		for i, c := range q.selCols {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(d.cols[c].name)
		}
		tpl.WriteString("select")
	}
	for i, a := range q.aggs {
		if i > 0 {
			sb.WriteString(", ")
		}
		arg := "*"
		if a.col >= 0 {
			arg = d.cols[a.col].name
		}
		fmt.Fprintf(&sb, "%s(%s)", aggNames[a.fn], arg)
		fmt.Fprintf(&tpl, "%s(%s) ", aggNames[a.fn], arg)
	}
	sb.WriteString(" FROM " + d.table)
	for i, c := range q.conds {
		if i == 0 {
			sb.WriteString(" WHERE ")
		} else {
			sb.WriteString(" AND ")
		}
		col := &d.cols[c.col]
		if c.lo == c.hi {
			fmt.Fprintf(&sb, "%s = %s", col.name, col.literal(c.lo))
			fmt.Fprintf(&tpl, "|%s=", col.name)
		} else {
			fmt.Fprintf(&sb, "%s BETWEEN %s AND %s", col.name, col.literal(c.lo), col.literal(c.hi))
			fmt.Fprintf(&tpl, "|%s~", col.name)
		}
	}
	if len(q.groupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		tpl.WriteString("|by")
		for i, c := range q.groupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(d.cols[c].name)
			tpl.WriteString(" " + d.cols[c].name)
		}
		fmt.Fprintf(&sb, " TOP %d", q.top)
	}
	if len(q.selCols) > 0 {
		fmt.Fprintf(&sb, " LIMIT %d", q.limit)
	}
	q.pql = sb.String()
	q.template = tpl.String()
}

// ---- the metrics table (scan_groupby, dashboard_zipf) ----

const (
	metricsDay0 = 16000
	metricsDays = 40
)

var metricsGroupDims = []string{"country", "platform", "fabric", "browser"}

func metricsDataset(r *rand.Rand, rows int) *dataset {
	cols := []column{
		{name: "metricName", typ: colString, names: names("metric", 80)},
		{name: "country", typ: colString, names: names("country", 40)},
		{name: "platform", typ: colString, names: []string{"android", "api", "ios", "web"}},
		{name: "fabric", typ: colString, names: []string{"ela4", "lor1", "lsg1", "ltx1", "lva1"}},
		{name: "browser", typ: colString, names: []string{"chrome", "edge", "firefox", "opera", "other", "safari"}},
		{name: "value", typ: colDouble},
		{name: "count", typ: colLong},
		{name: "day", typ: colLong},
	}
	specs := []fieldSpec{
		{Name: "metricName", Type: typeString, Kind: kindDim, SingleValue: true},
		{Name: "country", Type: typeString, Kind: kindDim, SingleValue: true},
		{Name: "platform", Type: typeString, Kind: kindDim, SingleValue: true},
		{Name: "fabric", Type: typeString, Kind: kindDim, SingleValue: true},
		{Name: "browser", Type: typeString, Kind: kindDim, SingleValue: true},
		{Name: "value", Type: typeDouble, Kind: kindMetric, SingleValue: true},
		{Name: "count", Type: typeLong, Kind: kindMetric, SingleValue: true},
		{Name: "day", Type: typeLong, Kind: kindTime, SingleValue: true, TimeUnit: "DAYS"},
	}
	d := newDataset("metrics", cols, specs)
	for i := 0; i < rows; i++ {
		d.appendRow(
			int32(r.Intn(80)), int32(r.Intn(40)), int32(r.Intn(4)), int32(r.Intn(5)), int32(r.Intn(6)),
			int32(r.Intn(80000)), int32(1+r.Intn(20)), int32(metricsDay0+r.Intn(metricsDays)),
		)
	}
	return d
}

// cycle hands out the values 0..n-1 in a seeded order and reshuffles when
// exhausted, so every pass draws each value equally often: pass totals then
// depend on the seed only through second-order effects.
type cycle struct {
	r    *rand.Rand
	perm []int
	pos  int
}

func newCycle(r *rand.Rand, n int) *cycle { return &cycle{r: r, perm: r.Perm(n)} }

func (c *cycle) next() int {
	if c.pos == len(c.perm) {
		c.r.Shuffle(len(c.perm), func(i, j int) { c.perm[i], c.perm[j] = c.perm[j], c.perm[i] })
		c.pos = 0
	}
	v := c.perm[c.pos]
	c.pos++
	return v
}

// zipfCounts apportions n draws over ranks 0..k-1 in proportion to
// 1/(rank+1)^1.1, by largest remainder. It is the Zipf profile itself and not
// a sample of it, so how many distinct ranks a list holds — and with that the
// cache hit ratio — is the same for every seed.
func zipfCounts(n, k int) []int {
	weights := make([]float64, k)
	var sum float64
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -1.1)
		sum += weights[i]
	}
	counts := make([]int, k)
	order := make([]int, k)
	rest := make([]float64, k)
	left := n
	for i, w := range weights {
		exact := float64(n) * w / sum
		counts[i] = int(exact)
		rest[i] = exact - float64(counts[i])
		order[i] = i
		left -= counts[i]
	}
	sort.SliceStable(order, func(a, b int) bool { return rest[order[a]] > rest[order[b]] })
	for _, i := range order[:left] {
		counts[i]++
	}
	return counts
}

// zipfList returns every rank repeated by its count, in a seeded order.
func zipfList(r *rand.Rand, counts []int) []int {
	var out []int
	for rank, c := range counts {
		for ; c > 0; c-- {
			out = append(out, rank)
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// scanGen emits the scan_groupby stream: every query is distinct in
// canonical form, so the result cache, the server aggregate cache and the
// expression memo all miss by construction.
type scanGen struct {
	d       *dataset
	r       *rand.Rand
	metrics *cycle
	shape   int
	seen    map[string]bool
}

func newScanGen(d *dataset, r *rand.Rand) *scanGen {
	return &scanGen{d: d, r: r, metrics: newCycle(r, 80), seen: map[string]bool{}}
}

func (g *scanGen) next(n int) []querySpec {
	d := g.d
	out := make([]querySpec, 0, n)
	for tries := 0; len(out) < n; tries++ {
		if tries > 100*n {
			panic("bench: scan_groupby ran out of distinct queries")
		}
		shape := g.shape % 6
		// Every query carries a day range, wide on even shapes and narrow on
		// odd ones; without it a shape has too few distinct forms for a run.
		lo, width := g.r.Intn(10), 25+g.r.Intn(6)
		if shape%2 == 1 {
			lo, width = g.r.Intn(metricsDays-14), 7+g.r.Intn(7)
		}
		q := querySpec{
			conds: []cond{
				eq(d.col("metricName"), g.metrics.next()),
				{d.col("day"), int32(metricsDay0 + lo), int32(metricsDay0 + lo + width - 1)},
			},
			aggs: []aggSpec{{aggSum, d.col("value")}, {aggCount, -1}},
			top:  20,
		}
		free := append([]string(nil), metricsGroupDims...)
		if shape >= 4 {
			q.conds = append(q.conds, eq(d.col("country"), g.r.Intn(40)))
			free = free[1:]
			q.aggs = append(q.aggs, aggSpec{aggMax, d.col("value")})
		}
		// Which dimensions group the result follows the position in the
		// stream, not the seed: group counts drive the cost of a query, so
		// every seed runs the same sequence of shapes.
		turn := g.shape / 6
		q.groupBy = []int{d.col(free[turn%len(free)])}
		if (shape/2)%2 == 1 {
			q.groupBy = append(q.groupBy, d.col(free[(turn+1+turn/len(free)%(len(free)-1))%len(free)]))
		}
		d.render(&q)
		if g.seen[q.pql] {
			continue
		}
		g.seen[q.pql] = true
		g.shape++
		out = append(out, q)
	}
	return out
}

func eq(col, code int) cond { return cond{col, int32(code), int32(code)} }

// dashGen emits the dashboard_zipf stream: a fixed set of templates ranked
// by popularity, each pass holding the Zipf(1.1) profile of them in a seeded
// order and carrying the pass's rolling seven-day window. A pass therefore
// starts cold for its window, and its hit ratio is a function of its length.
type dashGen struct {
	d         *dataset
	r         *rand.Rand
	templates []querySpec
}

func newDashGen(d *dataset, r *rand.Rand, templates int) *dashGen {
	g := &dashGen{d: d, r: r}
	seen := map[string]bool{}
	metrics := newCycle(r, 80)
	for tries := 0; len(g.templates) < templates; tries++ {
		if tries > 100*templates {
			panic("bench: dashboard_zipf ran out of distinct templates")
		}
		// The shape of a template follows its rank, so every seed ranks the
		// same shapes in the same order and differs only in the values.
		rank := len(g.templates)
		q := querySpec{
			conds: []cond{eq(d.col("metricName"), metrics.next()), {col: d.col("day")}},
			aggs:  []aggSpec{{aggSum, d.col("value")}, {aggCount, -1}},
			top:   10,
		}
		free := append([]string(nil), metricsGroupDims...)
		if rank%2 == 0 {
			q.conds = append(q.conds, eq(d.col("country"), r.Intn(40)))
			free = free[1:]
		}
		if rank%3 == 0 {
			q.conds = append(q.conds, eq(d.col("platform"), r.Intn(4)))
			free = free[1:]
		}
		if rank%4 > 0 {
			q.groupBy = []int{d.col(free[rank/4%len(free)])}
		}
		if rank%5 == 0 {
			q.aggs = append(q.aggs, aggSpec{aggSum, d.col("count")})
		}
		d.render(&q)
		if seen[q.pql] {
			continue
		}
		seen[q.pql] = true
		g.templates = append(g.templates, q)
	}
	return g
}

// next returns n queries whose window starts `window` days into the data.
func (g *dashGen) next(n, window int) []querySpec {
	lo := int32(metricsDay0 + window%(metricsDays-7))
	out := make([]querySpec, 0, n)
	for _, rank := range zipfList(g.r, zipfCounts(n, len(g.templates))) {
		q := g.templates[rank]
		q.conds = append([]cond(nil), q.conds...)
		q.conds[1].lo, q.conds[1].hi = lo, lo+6
		g.d.render(&q)
		out = append(out, q)
	}
	return out
}

// ---- the impressions table (lookup_fanout) ----

func impressionsDataset(r *rand.Rand, rows, members int) *dataset {
	cols := []column{
		{name: "memberId", typ: colLong},
		{name: "itemId", typ: colLong},
		{name: "impressions", typ: colLong},
		{name: "day", typ: colLong},
	}
	specs := []fieldSpec{
		{Name: "memberId", Type: typeLong, Kind: kindDim, SingleValue: true},
		{Name: "itemId", Type: typeLong, Kind: kindDim, SingleValue: true},
		{Name: "impressions", Type: typeLong, Kind: kindMetric, SingleValue: true},
		{Name: "day", Type: typeLong, Kind: kindTime, SingleValue: true, TimeUnit: "DAYS"},
	}
	d := newDataset("impressions", cols, specs)
	for i := 0; i < rows; i++ {
		d.appendRow(int32(r.Intn(members)), int32(r.Intn(5000)), int32(1+r.Intn(9)), int32(17000+r.Intn(7)))
	}
	return d
}

// lookupGen draws members without replacement, so no lookup repeats.
type lookupGen struct {
	d     *dataset
	order []int
	pos   int
}

func newLookupGen(d *dataset, r *rand.Rand, members int) *lookupGen {
	return &lookupGen{d: d, order: r.Perm(members)}
}

const lookupLimit = 200

func (g *lookupGen) next(n int) []querySpec {
	out := make([]querySpec, n)
	for i := range out {
		if g.pos == len(g.order) {
			panic("bench: lookup_fanout ran out of distinct members")
		}
		q := querySpec{
			conds:   []cond{eq(g.d.col("memberId"), g.order[g.pos])},
			selCols: []int{g.d.col("itemId"), g.d.col("impressions")},
			limit:   lookupLimit,
		}
		g.pos++
		g.d.render(&q)
		out[i] = q
	}
	return out
}

// ---- the events table (hybrid_ingest) ----

const (
	eventsBoundary  = 10000 // the offline table's last tick, hence the hybrid time boundary
	eventsPerTick   = 100   // events of one partition that share a tick
	eventsHistory   = 400   // ticks of offline history below the boundary
	eventsPartition = 2
)

func eventsColumns() ([]column, []fieldSpec) {
	cols := []column{
		{name: "category", typ: colString, names: names("cat", 20)},
		{name: "region", typ: colString, names: names("region", 8)},
		{name: "value", typ: colDouble},
		{name: "ts", typ: colLong},
	}
	specs := []fieldSpec{
		{Name: "category", Type: typeString, Kind: kindDim, SingleValue: true},
		{Name: "region", Type: typeString, Kind: kindDim, SingleValue: true},
		{Name: "value", Type: typeDouble, Kind: kindMetric, SingleValue: true},
		{Name: "ts", Type: typeLong, Kind: kindTime, SingleValue: true, TimeUnit: "SECONDS"},
	}
	return cols, specs
}

// eventsOffline generates the offline history: segment s of segs covers its
// own slice of ticks, and the very last row sits on the boundary tick so the
// broker's time boundary is eventsBoundary for every seed.
func eventsOffline(r *rand.Rand, segs, rowsPerSeg int) *dataset {
	cols, specs := eventsColumns()
	d := newDataset("events", cols, specs)
	slice := eventsHistory / segs
	for s := 0; s < segs; s++ {
		base := eventsBoundary - eventsHistory + s*slice
		for i := 0; i < rowsPerSeg; i++ {
			d.appendRow(int32(r.Intn(20)), int32(r.Intn(8)), int32(r.Intn(8000)), int32(base+r.Intn(slice)))
		}
	}
	d.data[3][d.n-1] = eventsBoundary
	return d
}

// eventStream is one partition's events, all generated up front: event j
// carries tick start + j/eventsPerTick, so a partition's clock is a function
// of how many events it has been sent.
type eventStream struct {
	d     *dataset
	start int
	n     atomic.Int64 // events sent; each partition has one sender at a time, any goroutine may read
}

func (s *eventStream) sent() int { return int(s.n.Load()) }

func newEventStream(r *rand.Rand, startTick, total int) *eventStream {
	cols, specs := eventsColumns()
	d := newDataset("events", cols, specs)
	for j := 0; j < total; j++ {
		d.appendRow(int32(r.Intn(20)), int32(r.Intn(8)), int32(r.Intn(8000)), int32(startTick+j/eventsPerTick))
	}
	return &eventStream{d: d, start: startTick}
}

// now is the tick of the next event to be sent.
func (s *eventStream) now() int { return s.start + s.sent()/eventsPerTick }

func (s *eventStream) json(j int) []byte {
	d := s.d
	return []byte(fmt.Sprintf(`{"category":%q,"region":%q,"value":%v,"ts":%d}`,
		d.cols[0].names[d.data[0][j]], d.cols[1].names[d.data[1][j]], float64(d.data[2][j])/8, d.data[3][j]))
}

// hybridGen emits the hybrid_ingest stream: even positions replay one of a
// few fixed dashboard queries (Zipf), odd positions are distinct ad-hoc
// windows that end margin ticks behind the partition clocks, so no answer
// depends on how far the consumers have got. Every window straddles the
// time boundary.
type hybridGen struct {
	d      *dataset
	r      *rand.Rand
	margin int
	fixed  []querySpec
	seen   map[string]bool
	adhoc  int
}

// newHybridGen takes the tick the partition clocks read after the preload;
// the replayed queries end at or before firstNow-margin.
func newHybridGen(d *dataset, r *rand.Rand, firstNow, margin int) *hybridGen {
	g := &hybridGen{d: d, r: r, margin: margin, seen: map[string]bool{}}
	for len(g.fixed) < 48 {
		// Where a window starts and ends follows the rank, not the seed: it
		// decides how many segments a query touches, hence what it costs.
		rank := len(g.fixed)
		span := firstNow - margin - eventsBoundary
		q := querySpec{
			conds: []cond{
				{d.col("ts"), int32(eventsBoundary - 50 - rank*37%(eventsHistory-50)), int32(eventsBoundary + 1 + rank*5%span)},
				eq(d.col("category"), r.Intn(20)),
			},
			aggs:    []aggSpec{{aggSum, d.col("value")}, {aggCount, -1}},
			groupBy: []int{d.col("region")},
			top:     10,
		}
		d.render(&q)
		if g.seen[q.pql] {
			continue
		}
		g.seen[q.pql] = true
		g.fixed = append(g.fixed, q)
	}
	return g
}

// next emits n queries; query i looks no further than clock(i)-margin, where
// clock is the slowest partition clock the query can rely on.
func (g *hybridGen) next(n int, clock func(i int) int) []querySpec {
	d := g.d
	replay := zipfList(g.r, zipfCounts(n/2, len(g.fixed)))
	out := make([]querySpec, 0, n)
	for len(out) < n {
		if i := len(out); i%2 == 0 && i/2 < len(replay) {
			out = append(out, g.fixed[replay[i/2]])
			continue
		}
		hi := clock(len(out)) - g.margin - g.adhoc%(1+g.margin/4)
		q := querySpec{
			conds: []cond{{d.col("ts"), int32(eventsBoundary - 1 - g.adhoc*37%(eventsHistory-1)), int32(hi)}},
			aggs:  []aggSpec{{aggSum, d.col("value")}, {aggCount, -1}, {aggMax, d.col("value")}},
			top:   20,
		}
		switch g.adhoc % 3 {
		case 0:
			q.conds = append(q.conds, eq(d.col("region"), g.r.Intn(8)))
			q.groupBy = []int{d.col("category")}
		case 1:
			q.groupBy = []int{d.col("category")}
		}
		d.render(&q)
		g.adhoc++
		if g.seen[q.pql] {
			continue
		}
		g.seen[q.pql] = true
		out = append(out, q)
	}
	return out
}

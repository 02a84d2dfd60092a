package query

import (
	"fmt"
	"math/bits"
	"strconv"
	"sync"

	"pinot/internal/expr"
	"pinot/internal/pql"
	"pinot/internal/segment"
)

// This file is the vectorized (block-at-a-time) execution path. Matching doc
// ids arrive in blocks of up to blockSize, dictionary ids and metric values
// decode in batches through the ColumnReader block methods, and aggregation
// states update through typed kernels instead of per-doc interface dispatch.
// Every kernel folds values in the exact per-element float64 order of the
// scalar path, so finalized results and Stats are identical in both modes —
// the differential test in vexec_diff_test.go enforces this.

// ---- block scratch ----

// blockScratch holds the typed buffers one segment execution decodes its
// blocks into: matching doc ids, dictionary ids per column read at once,
// metric values, and the group ordinal of each doc. Steps of one block run one
// after another (group resolution, then each aggregation kernel; each
// selected column in turn), so they share the buffers. The filter's scan
// cursors decode alongside those steps, so each owns its chunk buffers; the
// scratch keeps the cursors themselves. Scratches are pooled across segments
// and queries — a segment that matches four docs should not allocate for
// 1024 — and each buffer grows to the largest block asked of it.
type blockScratch struct {
	docs    []int
	ids     [][]uint32
	longs   []int64
	doubles []float64
	ords    []uint32
	u32s    []uint32
	// packed is the packedGrouper's index, kept between executions for its
	// buckets (emptied on release, dropped when a query left it large).
	packed map[uint64]uint32
	// cursors[:cursorsOut] are bound to leaves of the running execution.
	cursors    []*scanCursor
	cursorsOut int
}

var scratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

func getScratch() *blockScratch { return scratchPool.Get().(*blockScratch) }

// release returns the scratch to the pool. Pointers into the finished query
// are cleared first: a pooled buffer must not keep its segments or stats
// alive.
func (s *blockScratch) release() {
	if len(s.packed) > maxPooledGroups {
		s.packed = nil
	}
	clear(s.packed)
	for _, c := range s.cursors[:s.cursorsOut] {
		c.leaf = nil
	}
	s.cursorsOut = 0
	scratchPool.Put(s)
}

// cursor binds one of the scratch's scan cursors to a leaf.
func (s *blockScratch) cursor(leaf *scanLeaf, numDocs int) *scanCursor {
	if s.cursorsOut == len(s.cursors) {
		s.cursors = append(s.cursors, new(scanCursor))
	}
	c := s.cursors[s.cursorsOut]
	s.cursorsOut++
	c.leaf, c.numDocs = leaf, numDocs
	c.pos, c.start, c.end, c.ahead = 0, 0, 0, 0
	return c
}

// sized returns buf with length n, reallocating only when it is too small.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

func (s *blockScratch) docBuf(n int) []int {
	s.docs = sized(s.docs, n)
	return s.docs
}

// idBuf returns the dict-id buffer of the c-th column a step reads at once.
func (s *blockScratch) idBuf(c, n int) []uint32 {
	for len(s.ids) <= c {
		s.ids = append(s.ids, nil)
	}
	s.ids[c] = sized(s.ids[c], n)
	return s.ids[c]
}

// u32Buf is the staging buffer between doc-id blocks and bitmap values; its
// users fill and drain it within one call.
func (s *blockScratch) u32Buf(n int) []uint32 {
	s.u32s = sized(s.u32s, n)
	return s.u32s
}

func (s *blockScratch) longBuf(n int) []int64 {
	s.longs = sized(s.longs, n)
	return s.longs
}

func (s *blockScratch) doubleBuf(n int) []float64 {
	s.doubles = sized(s.doubles, n)
	return s.doubles
}

// maxPooledGroups bounds the group index a pooled scratch keeps.
const maxPooledGroups = 4096

func (s *blockScratch) packedIndex() map[uint64]uint32 {
	if s.packed == nil {
		s.packed = map[uint64]uint32{}
	}
	return s.packed
}

func (s *blockScratch) ordBuf(n int) []uint32 {
	s.ords = sized(s.ords, n)
	return s.ords
}

// ---- numeric input reader ----

type nrMode int

const (
	nrDouble     nrMode = iota // raw metric column: Double(doc)
	nrDict                     // dictionary column, dense id→float64 table
	nrDictScalar               // dictionary column, per-id decode (selective filters)
)

// numericReader reads the numeric input of an aggregation for a block of
// docs, mirroring aggInput.numeric value-for-value.
type numericReader struct {
	col    segment.ColumnReader
	mode   nrMode
	decode []float64
	sc     *blockScratch
}

func newNumericReader(col segment.ColumnReader, estimate int, sc *blockScratch) *numericReader {
	r := &numericReader{col: col, sc: sc}
	if !col.HasDictionary() {
		r.mode = nrDouble
		return r
	}
	card := col.Cardinality()
	// The dense decode table costs O(card) to build; worth it only when
	// the filter is expected to touch a comparable number of rows.
	if estimate < card/4 {
		r.mode = nrDictScalar
		return r
	}
	r.mode = nrDict
	r.decode = make([]float64, card)
	for id := 0; id < card; id++ {
		r.decode[id] = dictNumeric(col.Value(id))
	}
	return r
}

func dictNumeric(v any) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

func (r *numericReader) read(docs []int, dst []float64) {
	if r.mode == nrDouble {
		r.col.Doubles(docs, dst)
		return
	}
	ids := r.sc.idBuf(0, len(docs))
	r.col.DictIDs(docs, ids)
	if r.mode == nrDict {
		for i, id := range ids {
			dst[i] = r.decode[id]
		}
		return
	}
	for i, id := range ids {
		dst[i] = dictNumeric(r.col.Value(int(id)))
	}
}

// ---- DISTINCTCOUNT key cache ----

// dictKeyCache lazily renders dict ids to their DISTINCTCOUNT string keys. A
// have-flag array marks rendered ids ("" is a valid dictionary value, so the
// empty string cannot serve as the absent sentinel).
type dictKeyCache struct {
	col  segment.ColumnReader
	keys []string
	have []bool
}

func newDictKeyCache(col segment.ColumnReader) *dictKeyCache {
	card := col.Cardinality()
	return &dictKeyCache{col: col, keys: make([]string, card), have: make([]bool, card)}
}

func (c *dictKeyCache) key(id uint32) string {
	if !c.have[id] {
		c.keys[id] = fmt.Sprint(c.col.Value(int(id)))
		c.have[id] = true
	}
	return c.keys[id]
}

// ---- aggregation kernel ----

// aggKernel accumulates one aggregation input over doc blocks, the typed
// replacement of per-doc aggInput.accumulate.
type aggKernel struct {
	in   aggInput
	nr   *numericReader
	keys *dictKeyCache // DISTINCTCOUNT over a dictionary column
	sc   *blockScratch
	// The prepared block: windows of the scratch, valid until the next
	// kernel prepares.
	vals    []float64
	ids     []uint32
	longs   []int64
	doubles []float64
	anys    []any // DISTINCTCOUNT over an expression
}

func newAggKernel(in aggInput, estimate int, sc *blockScratch) *aggKernel {
	k := &aggKernel{in: in, sc: sc}
	switch in.expr.Func {
	case pql.Count:
	case pql.DistinctCount:
		if in.ev == nil && in.col.HasDictionary() {
			k.keys = newDictKeyCache(in.col)
		}
	default:
		if in.ev == nil {
			k.nr = newNumericReader(in.col, estimate, sc)
		}
	}
	return k
}

// prepare decodes the block's input values into typed scratch.
func (k *aggKernel) prepare(docs []int) {
	switch k.in.expr.Func {
	case pql.Count:
	case pql.DistinctCount:
		if k.in.ev != nil {
			if cap(k.anys) < len(docs) {
				k.anys = make([]any, blockSize)
			}
			k.anys = k.anys[:len(docs)]
			k.in.ev.fillValues(docs, k.anys)
			return
		}
		col := k.in.col
		switch {
		case col.HasDictionary():
			k.ids = k.sc.idBuf(0, len(docs))
			col.DictIDs(docs, k.ids)
		case col.Spec().Type.Integral():
			k.longs = k.sc.longBuf(len(docs))
			col.Longs(docs, k.longs)
		default:
			k.doubles = k.sc.doubleBuf(len(docs))
			col.Doubles(docs, k.doubles)
		}
	default:
		k.vals = k.sc.doubleBuf(len(docs))
		if k.in.ev != nil {
			k.in.ev.fillDoubles(docs, k.vals)
		} else {
			k.nr.read(docs, k.vals)
		}
	}
}

// keyAt renders the DISTINCTCOUNT key of the i-th doc of the prepared block,
// producing the same strings as aggInput.distinctKey.
func (k *aggKernel) keyAt(i int) string {
	switch {
	case k.in.ev != nil:
		return fmt.Sprint(k.anys[i])
	case k.keys != nil:
		return k.keys.key(k.ids[i])
	case k.in.col.Spec().Type.Integral():
		return strconv.FormatInt(k.longs[i], 10)
	default:
		return strconv.FormatFloat(k.doubles[i], 'g', -1, 64)
	}
}

// accumulateBlock folds the whole prepared block into row 0 of the
// aggregate's column: an aggregation without GROUP BY.
func (k *aggKernel) accumulateBlock(c *aggColumn, n int) {
	switch k.in.expr.Func {
	case pql.Count:
		c.count[0] += int64(n)
	case pql.DistinctCount:
		for i := 0; i < n; i++ {
			c.addDistinct(0, k.keyAt(i))
		}
	default:
		c.foldNumerics(0, k.vals[:n])
	}
}

// accumulateGroups folds each doc of the prepared block into its group's row
// of the aggregate's column.
func (k *aggKernel) accumulateGroups(c *aggColumn, ords []uint32) {
	switch k.in.expr.Func {
	case pql.Count:
		c.addCounts(ords)
	case pql.DistinctCount:
		for i, ord := range ords {
			c.addDistinct(ord, k.keyAt(i))
		}
	default:
		c.addNumerics(ords, k.vals[:len(ords)])
	}
}

// ---- group-by fast paths ----

// grouper resolves each doc of a block to the ordinal of its group in the
// segment's table, adding (and charging for) the groups it first meets.
type grouper interface {
	// groups fails only on a key the table cannot hold; the block is then
	// unresolved and the segment's execution over.
	groups(docs []int, out []uint32) error
}

// bitsNeeded returns how many bits a dict id in [0, card) needs.
func bitsNeeded(card int) int {
	if card <= 1 {
		return 0
	}
	return bits.Len(uint(card - 1))
}

const denseGroupMaxCard = 1 << 16

// groupSink is what every grouper holds: the table it fills, the items that
// name its key columns, and the charger new groups are billed to.
type groupSink struct {
	t       *GroupTable
	items   []groupItem
	charger *groupCharger
	sc      *blockScratch
}

// added bills the group a grouper just created.
func (g *groupSink) added(ord uint32) {
	g.charger.charge(g.t.keyLen(ord, g.items), len(g.items))
}

// newItemGrouper picks the grouper for a set of GROUP BY items and types the
// table's key columns to match. Plain dictionary columns group by dictionary
// id — a flat id→ordinal array for one small dictionary, a map over the ids
// packed into a uint64 when they fit, the table's own hash index otherwise —
// and the table holds ids until the segment is done. Expression items group
// by value.
func newItemGrouper(items []groupItem, t *GroupTable, charger *groupCharger, sc *blockScratch) grouper {
	sink := groupSink{t: t, items: items, charger: charger, sc: sc}
	// A single memoized expression groups through a dictID→group translation
	// table: the expression value is computed once per distinct dict id, not
	// per row.
	if len(items) == 1 && items[0].ev != nil && items[0].ev.memo != nil {
		if ev := items[0].ev; ev.readers[0].Cardinality() <= denseGroupMaxCard {
			return &dictTransGrouper{groupSink: sink, col: ev.readers[0], memo: ev.memo,
				ordOf: make([]uint32, ev.readers[0].Cardinality())}
		}
	}
	for _, it := range items {
		if it.ev != nil {
			return newExprGrouper(sink)
		}
	}
	width := 0
	shifts := make([]uint, len(items))
	for c, it := range items {
		t.keys[c].kind = keyDictID
		shifts[c] = uint(width)
		width += bitsNeeded(it.col.Cardinality())
	}
	switch {
	case len(items) == 1 && items[0].col.Cardinality() <= denseGroupMaxCard:
		return &denseGrouper{groupSink: sink, ordOf: make([]uint32, items[0].col.Cardinality())}
	case width <= 64:
		return &packedGrouper{groupSink: sink, shifts: shifts, m: sc.packedIndex()}
	}
	return &tupleGrouper{sink}
}

// denseGrouper indexes groups by dict id directly: single group column with
// a dictionary small enough for a flat array. No hashing.
type denseGrouper struct {
	groupSink
	ordOf []uint32 // dict id → ordinal+1, 0 unseen
}

func (g *denseGrouper) groups(docs []int, out []uint32) error {
	ids := g.sc.idBuf(0, len(docs))
	g.items[0].col.DictIDs(docs, ids)
	key := &g.t.keys[0]
	for i, id := range ids {
		o := g.ordOf[id]
		if o == 0 {
			key.nums = append(key.nums, uint64(id))
			g.t.n++
			o = uint32(g.t.n)
			g.ordOf[id] = o
			g.added(o - 1)
		}
		out[i] = o - 1
	}
	return nil
}

// packedGrouper packs per-column dict ids into one uint64 map key when the
// combined widths fit.
type packedGrouper struct {
	groupSink
	shifts []uint
	m      map[uint64]uint32
}

func (g *packedGrouper) groups(docs []int, out []uint32) error {
	for c, it := range g.items {
		it.col.DictIDs(docs, g.sc.idBuf(c, len(docs)))
	}
	ids := g.sc.ids
	for i := range docs {
		var packed uint64
		for c := range g.items {
			packed |= uint64(ids[c][i]) << g.shifts[c]
		}
		o, ok := g.m[packed]
		if !ok {
			for c := range g.items {
				g.t.keys[c].nums = append(g.t.keys[c].nums, uint64(ids[c][i]))
			}
			g.t.n++
			o = uint32(g.t.n - 1)
			g.m[packed] = o
			g.added(o)
		}
		out[i] = o
	}
	return nil
}

// tupleGrouper is the fallback for dictionaries too wide to pack: each doc's
// ids are staged as a key and the table's hash index finds the group.
type tupleGrouper struct{ groupSink }

func (g *tupleGrouper) groups(docs []int, out []uint32) error {
	for c, it := range g.items {
		it.col.DictIDs(docs, g.sc.idBuf(c, len(docs)))
	}
	ids := g.sc.ids
	for i := range docs {
		for c := range g.items {
			g.t.keys[c].nums = append(g.t.keys[c].nums, uint64(ids[c][i]))
		}
		o, isNew := g.t.commit()
		if isNew {
			g.added(o)
		}
		out[i] = o
	}
	return nil
}

// dictTransGrouper groups by one memoized expression through a dictID →
// ordinal translation table. Distinct dict ids whose expression values are
// equal (lower('Cat1') and lower('cat1')) find one group through the table's
// hash index, so group creation — and the group-state charge — is per
// distinct value, exactly like the scalar path.
type dictTransGrouper struct {
	groupSink
	col   segment.ColumnReader
	memo  *expr.DictMemo
	ordOf []uint32 // dict id → ordinal+1, 0 unseen
}

func (g *dictTransGrouper) groups(docs []int, out []uint32) error {
	ids := g.sc.idBuf(0, len(docs))
	g.col.DictIDs(docs, ids)
	key := &g.t.keys[0]
	for i, id := range ids {
		o := g.ordOf[id]
		if o == 0 {
			switch m := g.memo; m.Kind {
			case expr.Long:
				key.kind, key.nums = keyLong, append(key.nums, uint64(m.Longs[id]))
			case expr.Double:
				key.kind, key.nums = keyDouble, append(key.nums, doubleBits(m.Doubles[id]))
			case expr.Bool:
				key.kind, key.nums = keyBool, append(key.nums, boolBits(m.Bools[id]))
			default:
				key.kind, key.strs = keyString, append(key.strs, m.Strings[id])
			}
			ord, isNew := g.t.commit()
			if isNew {
				g.added(ord)
			}
			o = ord + 1
			g.ordOf[id] = o
		}
		out[i] = o - 1
	}
	return nil
}

// exprGrouper groups by derived expressions (mixed with plain columns).
// When the only item is a single compiled integral expression — the
// timeBucket(ts, w) shape — group keys stay int64 end to end: batch kernel
// eval into a long buffer staged straight into the key column, no boxing.
// Everything else boxes each doc's values and upserts them, as the scalar
// path does.
type exprGrouper struct {
	groupSink
	values []any
	anys   [][]any
	fast   bool
}

func newExprGrouper(sink groupSink) *exprGrouper {
	g := &exprGrouper{groupSink: sink, values: make([]any, len(sink.items)), anys: make([][]any, len(sink.items))}
	if it := sink.items; len(it) == 1 && it[0].ev.kernel != nil && it[0].ev.kernel.Kind == expr.Long {
		g.fast = true
		g.t.keys[0].kind = keyLong
	}
	return g
}

func (g *exprGrouper) groups(docs []int, out []uint32) error {
	if g.fast {
		ls := g.sc.longBuf(len(docs))
		ev := g.items[0].ev
		ev.kernel.EvalLongs(ev.ksrc, docs, ls)
		key := &g.t.keys[0]
		for i, v := range ls {
			key.nums = append(key.nums, uint64(v))
			o, isNew := g.t.commit()
			if isNew {
				g.added(o)
			}
			out[i] = o
		}
		return nil
	}
	for c, item := range g.items {
		if item.ev != nil {
			if cap(g.anys[c]) < len(docs) {
				g.anys[c] = make([]any, blockSize)
			}
			g.anys[c] = g.anys[c][:len(docs)]
			item.ev.fillValues(docs, g.anys[c])
			continue
		}
		item.col.DictIDs(docs, g.sc.idBuf(c, len(docs)))
	}
	ids := g.sc.ids
	for i := range docs {
		for c, item := range g.items {
			if item.ev != nil {
				g.values[c] = g.anys[c][i]
			} else {
				g.values[c] = item.col.Value(int(ids[c][i]))
			}
		}
		o, isNew, err := g.t.upsert(g.values)
		if err != nil {
			return err
		}
		if isNew {
			g.added(o)
		}
		out[i] = o
	}
	return nil
}

// runGroupByBlocks is the vectorized aggregation loop: each block resolves to
// group ordinals, then each aggregation kernel folds its values into the
// rows those name; without GROUP BY there is nothing to resolve and every
// block folds into row 0. Cancellation and the group-state cap are polled
// once per block, the same cadence as the scalar path; a tripped cap returns
// ErrGroupStateLimit with the groups built so far in the table, so the query
// degrades to a partial result.
func runGroupByBlocks(env *execEnv, set docIDSet, inputs []aggInput, items []groupItem, t *GroupTable, charger *groupCharger) (int64, error) {
	sc := getScratch()
	defer sc.release()
	est := set.estimate()
	kernels := make([]*aggKernel, len(inputs))
	for i, in := range inputs {
		kernels[i] = newAggKernel(in, est, sc)
	}
	var g grouper
	if len(items) > 0 {
		g = newItemGrouper(items, t, charger, sc)
	}
	it := set.iterator(sc)
	buf := sc.docBuf(blockSize)
	ords := sc.ordBuf(blockSize)
	var docs int64
	for {
		if err := env.checkpoint(); err != nil {
			return docs, err
		}
		if env.groupLimitTripped() {
			return docs, ErrGroupStateLimit
		}
		n := it.nextBlock(buf)
		if n == 0 {
			break
		}
		docs += int64(n)
		if g != nil {
			if err := g.groups(buf[:n], ords[:n]); err != nil {
				// A nil value is an expression that failed and latched its own
				// error already; either way the next checkpoint ends the segment.
				env.fail(err)
				continue
			}
			t.addStates()
		}
		for i, k := range kernels {
			k.prepare(buf[:n])
			if g == nil {
				k.accumulateBlock(&t.aggs[i], n)
			} else {
				k.accumulateGroups(&t.aggs[i], ords[:n])
			}
		}
	}
	return docs, nil
}

// ---- selection ----

// runSelectionBlocks is the vectorized selection loop. Rows of each block
// share one []any arena, allocated fresh per block (retained rows alias it,
// so it is never reused, unlike the pooled scratch the columns decode
// through) and filled column-major so each column decodes in one batch.
// Without ORDER BY the block demand is capped at the rows still needed; with
// the exact-fill nextBlock contract this walks precisely the docs the scalar
// early-exit walks, keeping Stats identical.
func runSelectionBlocks(env *execEnv, out *Intermediate, q *pql.Query, set docIDSet, readers []segment.ColumnReader, keep int, needAll bool) (int64, error) {
	sc := getScratch()
	defer sc.release()
	it := set.iterator(sc)
	width := len(readers)
	var mvBuf []int
	var docs int64
	for {
		if err := env.checkpoint(); err != nil {
			return docs, err
		}
		want := blockSize
		if !needAll {
			want = keep - len(out.Rows)
			if want < 1 {
				want = 1
			}
			if want > blockSize {
				want = blockSize
			}
		}
		block := sc.docBuf(want)
		n := it.nextBlock(block)
		if n == 0 {
			break
		}
		docs += int64(n)
		block = block[:n]
		arena := make([]any, n*width)
		for c, col := range readers {
			f := col.Spec()
			switch {
			case f.Kind == segment.Metric && f.Type.Integral():
				vs := sc.longBuf(n)
				col.Longs(block, vs)
				for i, v := range vs {
					arena[i*width+c] = v
				}
			case f.Kind == segment.Metric:
				vs := sc.doubleBuf(n)
				col.Doubles(block, vs)
				for i, v := range vs {
					arena[i*width+c] = v
				}
			case f.SingleValue:
				vs := sc.idBuf(0, n)
				col.DictIDs(block, vs)
				for i, id := range vs {
					arena[i*width+c] = col.Value(int(id))
				}
			default:
				for i, doc := range block {
					mvBuf = col.DictIDsMV(doc, mvBuf[:0])
					vals := make([]any, len(mvBuf))
					for j, id := range mvBuf {
						vals[j] = col.Value(id)
					}
					arena[i*width+c] = vals
				}
			}
		}
		for i := 0; i < n; i++ {
			out.Rows = append(out.Rows, arena[i*width:(i+1)*width:(i+1)*width])
		}
		if !needAll && len(out.Rows) >= keep {
			break
		}
		if needAll && len(out.Rows) > 4*keep {
			tmp := &Intermediate{Kind: KindSelection, SelectCols: out.SelectCols, Rows: out.Rows}
			pruneQ := *q
			pruneQ.Offset, pruneQ.Limit = 0, keep
			out.Rows = tmp.Finalize(&pruneQ).Rows
		}
	}
	return docs, nil
}

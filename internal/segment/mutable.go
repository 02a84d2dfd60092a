package segment

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"pinot/internal/bitmap"
)

// A consuming segment has one writer and any number of readers, and the
// readers take no lock on the scan path. Three rules make that safe
// (DESIGN.md, "Consuming segments: the reader contract"):
//
//   - storage is append-only: a slot, once written, is never written again
//     and never moves under a reader that can see it;
//   - the writer publishes a boundary — the document count, each column's
//     cardinality and running min/max — only after every slot below it is
//     written;
//   - a reader takes one Snapshot of the boundary and reads nothing beyond it.

// growArray is an append-only array. When it fills, the writer copies it into
// one twice the size and swaps the pointer; a reader holding the old array
// still sees every element it was entitled to, since those never change.
type growArray[T any] struct {
	arr atomic.Pointer[[]T] // len == cap
	n   int                 // elements appended; the writer's
}

func (g *growArray[T]) append(v T) {
	a := g.arr.Load()
	if a == nil || g.n == len(*a) {
		grown := make([]T, max(8, 2*g.n))
		if a != nil {
			copy(grown, *a)
		}
		a = &grown
		g.arr.Store(a)
	}
	(*a)[g.n] = v
	g.n++
}

// view returns the first n elements, n being a length the writer published
// before the caller learnt it.
func (g *growArray[T]) view(n int) []T {
	if n == 0 {
		return nil
	}
	return (*g.arr.Load())[:n]
}

// Forward columns grow in chunks of chunkLen values that are never
// reallocated; only the table of chunk pointers is a growArray.
const (
	chunkShift = 10
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

type chunked[T any] struct {
	chunks growArray[*[chunkLen]T]
	cur    *[chunkLen]T // the chunk being filled
	n      int          // values appended; the writer's
}

func (c *chunked[T]) append(v T) {
	i := c.n & chunkMask
	if i == 0 {
		c.cur = new([chunkLen]T)
		c.chunks.append(c.cur)
	}
	c.cur[i] = v
	c.n++
}

// view returns the chunks holding the first n values.
func (c *chunked[T]) view(n int) chunkView[T] {
	return c.chunks.view((n + chunkMask) >> chunkShift)
}

// chunkView reads a prefix of a chunked column.
type chunkView[T any] []*[chunkLen]T

func (v chunkView[T]) at(i int) T { return v[i>>chunkShift][i&chunkMask] }

// span returns the values from position start to the end of its chunk, at
// most max of them.
func (v chunkView[T]) span(start, max int) []T {
	c := v[start>>chunkShift][start&chunkMask:]
	if len(c) > max {
		c = c[:max]
	}
	return c
}

func (v chunkView[T]) copyTo(start int, dst []T) {
	for len(dst) > 0 {
		n := copy(dst, v.span(start, len(dst)))
		dst, start = dst[n:], start+n
	}
}

// dict is the arrival-order dictionary of a consuming column: a new value
// takes the next id. Booleans are held as int64 0 and 1, so three
// instantiations cover the four value types.
type dict[T cmp.Ordered] struct {
	ids          map[T]uint32 // value → id; inserts and other goroutines' reads hold the segment's mutex
	values       growArray[T] // id → value
	minID, maxID uint32       // ids of the smallest and largest value; the writer's
}

// index returns the id of v, adding it if it is new.
func (d *dict[T]) index(mu *sync.Mutex, v T) uint32 {
	if id, ok := d.ids[v]; ok {
		return id
	}
	id := uint32(d.values.n)
	vals := d.values.view(int(id))
	if id == 0 || v < vals[d.minID] {
		d.minID = id
	}
	if id == 0 || v > vals[d.maxID] {
		d.maxID = id
	}
	d.values.append(v)
	mu.Lock()
	d.ids[v] = id
	mu.Unlock()
	return id
}

// lookup is IndexOf for a reader: the id of v if the dictionary held it when
// it had card entries.
func (d *dict[T]) lookup(mu *sync.Mutex, v T, card int) (int, bool) {
	mu.Lock()
	id, ok := d.ids[v]
	mu.Unlock()
	if !ok || int(id) >= card {
		return 0, false
	}
	return int(id), true
}

// posting is one dictionary id's realtime inverted list: ascending document
// ids, of which the first n are written.
type posting struct {
	docs growArray[uint32]
	n    atomic.Uint32
}

type mutableColumn struct {
	spec FieldSpec
	mu   *sync.Mutex // the segment's

	// Dictionary columns (dimensions and time) have exactly one of these.
	strs  *dict[string]
	longs *dict[int64]
	dbls  *dict[float64]

	ids      chunked[uint32]      // dict ids: one per document, or every document's values end to end
	mvEnd    chunked[uint32]      // multi-value: where each document's ids end
	postings *growArray[*posting] // realtime inverted index by dict id, or nil

	// Metrics are stored raw, with a running min and max.
	mLongs       chunked[int64]
	mDbls        chunked[float64]
	mMin, mMax   uint64 // bits of the running min and max; the writer's
	metricIsLong bool

	// The published boundary (MutableSegment.publish).
	pubCard        atomic.Uint32
	pubMin, pubMax atomic.Uint64 // dictionary column: ids; metric: value bits
}

// MutableSegment is the realtime consuming segment: rows append as they
// arrive from the stream, dictionaries grow hash-based in arrival order, and
// an optional realtime inverted index is maintained incrementally. It has
// one writer (Append, Add, AddMap, Seal and the rows of NewRow belong to it);
// queries run beside the writer on Snapshots and never block it.
type MutableSegment struct {
	name   string
	table  string
	schema *Schema
	cfg    IndexConfig
	cols   []*mutableColumn // schema order
	row    *TypedRow        // Add's staging row

	mu   sync.Mutex // guards the dictionaries' value → id maps
	rows int        // rows appended; the writer's

	// The boundary readers see. seq is odd while publish rewrites it.
	seq     atomic.Uint64
	numDocs atomic.Int64
}

// NewMutableSegment returns an empty consuming segment. Inverted columns
// listed in cfg get realtime inverted indexes; SortColumn only takes effect
// when the segment is sealed.
func NewMutableSegment(table, name string, schema *Schema, cfg IndexConfig) (*MutableSegment, error) {
	for _, ic := range cfg.InvertedColumns {
		if _, ok := schema.Field(ic); !ok {
			return nil, fmt.Errorf("segment: inverted column %q not in schema", ic)
		}
	}
	return newMutableSegment(table, name, schema, cfg, true), nil
}

func newMutableSegment(table, name string, schema *Schema, cfg IndexConfig, realtimeInverted bool) *MutableSegment {
	s := &MutableSegment{name: name, table: table, schema: schema, cfg: cfg}
	s.cols = make([]*mutableColumn, len(schema.Fields))
	for i, f := range schema.Fields {
		c := &mutableColumn{spec: f, mu: &s.mu}
		switch {
		case f.Kind == Metric:
			c.metricIsLong = f.Type.Integral()
		case f.Type == TypeString:
			c.strs = &dict[string]{ids: map[string]uint32{}}
		case f.Type.Integral() || f.Type == TypeBoolean:
			c.longs = &dict[int64]{ids: map[int64]uint32{}}
		default:
			c.dbls = &dict[float64]{ids: map[float64]uint32{}}
		}
		s.cols[i] = c
	}
	if realtimeInverted {
		for _, ic := range cfg.InvertedColumns {
			if c := s.cols[schema.FieldIndex(ic)]; c.spec.Kind != Metric {
				c.postings = &growArray[*posting]{}
			}
		}
	}
	s.row = s.NewRow()
	return s
}

// Name returns the segment name.
func (s *MutableSegment) Name() string { return s.name }

// Schema returns the segment schema.
func (s *MutableSegment) Schema() *Schema { return s.schema }

// NumDocs returns the published document count.
func (s *MutableSegment) NumDocs() int { return int(s.numDocs.Load()) }

// TypedRow stages one row for a MutableSegment, a typed list of values per
// schema field (one value for a single-value field; booleans as 0 and 1).
// The writer fills it and hands it to Append, then reuses it: staging a row
// allocates nothing once the lists have grown.
type TypedRow struct {
	seg   *MutableSegment
	cells []rowCell
}

type rowCell struct {
	longs []int64
	dbls  []float64
	strs  []string
}

// NewRow returns a staging row for the segment, every field at its default.
func (s *MutableSegment) NewRow() *TypedRow {
	r := &TypedRow{seg: s, cells: make([]rowCell, len(s.cols))}
	r.Reset()
	return r
}

// Reset puts every field back to the value a missing field takes
// (DefaultValue).
func (r *TypedRow) Reset() {
	for i, c := range r.seg.cols {
		r.Clear(i)
		switch t := c.spec.Type; {
		case t == TypeString:
			r.cells[i].strs = append(r.cells[i].strs, "null")
		case t.Integral() || t == TypeBoolean:
			r.cells[i].longs = append(r.cells[i].longs, 0)
		default:
			r.cells[i].dbls = append(r.cells[i].dbls, 0)
		}
	}
}

// Clear empties field i's value list.
func (r *TypedRow) Clear(i int) {
	c := &r.cells[i]
	c.longs, c.dbls, c.strs = c.longs[:0], c.dbls[:0], c.strs[:0]
}

// AppendLong adds a value to an INT or LONG field.
func (r *TypedRow) AppendLong(i int, v int64) { r.cells[i].longs = append(r.cells[i].longs, v) }

// AppendDouble adds a value to a FLOAT or DOUBLE field.
func (r *TypedRow) AppendDouble(i int, v float64) { r.cells[i].dbls = append(r.cells[i].dbls, v) }

// AppendBool adds a value to a BOOLEAN field.
func (r *TypedRow) AppendBool(i int, v bool) {
	var x int64
	if v {
		x = 1
	}
	r.cells[i].longs = append(r.cells[i].longs, x)
}

// AppendBytes adds a value to a STRING field. A value the column's
// dictionary already holds is taken from there, so only a new value
// allocates.
func (r *TypedRow) AppendBytes(i int, v []byte) {
	d := r.seg.cols[i].strs
	var s string
	if id, ok := d.ids[string(v)]; ok { // the writer's own read: no insert can run beside it
		s = d.values.view(d.values.n)[id]
	} else {
		s = string(v)
	}
	r.cells[i].strs = append(r.cells[i].strs, s)
}

// Set replaces field i's values with a canonical value: int64, float64,
// string or bool for a single-value field, a slice of one of those for a
// multi-value field.
func (r *TypedRow) Set(i int, v any) error {
	f := r.seg.cols[i].spec
	r.Clear(i)
	c := &r.cells[i]
	ok := false
	if f.SingleValue {
		switch x := v.(type) {
		case int64:
			c.longs, ok = append(c.longs, x), f.Type.Integral()
		case float64:
			c.dbls, ok = append(c.dbls, x), f.Type.Numeric() && !f.Type.Integral()
		case string:
			c.strs, ok = append(c.strs, x), f.Type == TypeString
		case bool:
			r.AppendBool(i, x)
			ok = f.Type == TypeBoolean
		}
	} else {
		switch xs := v.(type) {
		case []int64:
			c.longs, ok = append(c.longs, xs...), f.Type.Integral()
		case []float64:
			c.dbls, ok = append(c.dbls, xs...), f.Type.Numeric() && !f.Type.Integral()
		case []string:
			c.strs, ok = append(c.strs, xs...), f.Type == TypeString
		case []bool:
			for _, x := range xs {
				r.AppendBool(i, x)
			}
			ok = f.Type == TypeBoolean
		}
	}
	if !ok {
		return fmt.Errorf("segment: column %q: %s field (single-value %t) cannot hold %T", f.Name, f.Type, f.SingleValue, v)
	}
	return nil
}

// Value returns field i as the canonical value Set accepts.
func (r *TypedRow) Value(i int) any {
	f, c := r.seg.cols[i].spec, &r.cells[i]
	switch t := f.Type; {
	case t == TypeString:
		return cellValue(c.strs, f.SingleValue)
	case t == TypeBoolean:
		bools := make([]bool, len(c.longs))
		for j, x := range c.longs {
			bools[j] = x != 0
		}
		return cellValue(bools, f.SingleValue)
	case t.Integral():
		return cellValue(c.longs, f.SingleValue)
	}
	return cellValue(c.dbls, f.SingleValue)
}

func cellValue[T any](vals []T, single bool) any {
	if single {
		return vals[0]
	}
	return append([]T(nil), vals...)
}

// Append adds the staged row to the segment and publishes it to readers.
func (s *MutableSegment) Append(r *TypedRow) error {
	if err := s.appendRow(r); err != nil {
		return err
	}
	s.publish()
	return nil
}

// Add appends one row (canonical values aligned with the schema).
func (s *MutableSegment) Add(row Row) error {
	if err := s.stage(row); err != nil {
		return err
	}
	return s.Append(s.row)
}

// AddMap appends a row given as a column-name→value map.
func (s *MutableSegment) AddMap(m map[string]any) error {
	row, err := s.schema.RowFromMap(m)
	if err != nil {
		return err
	}
	return s.Add(row)
}

// stage copies a Row into the segment's own staging row.
func (s *MutableSegment) stage(row Row) error {
	if len(row) != len(s.cols) {
		return fmt.Errorf("segment: row has %d values, schema has %d fields", len(row), len(s.cols))
	}
	for i, v := range row {
		if err := s.row.Set(i, v); err != nil {
			return err
		}
	}
	return nil
}

// appendRow writes the staged row below the boundary's reach. The row is
// checked whole before its first value is stored, so a rejected row leaves
// no trace.
func (s *MutableSegment) appendRow(r *TypedRow) error {
	for i, c := range s.cols {
		cell := &r.cells[i]
		if n := len(cell.longs) + len(cell.dbls) + len(cell.strs); c.spec.SingleValue && n != 1 {
			return fmt.Errorf("segment: column %q: single-value field given %d values", c.spec.Name, n)
		}
	}
	doc := uint32(s.rows)
	for i, c := range s.cols {
		cell := &r.cells[i]
		switch {
		case c.strs != nil:
			addDictValues(c, c.strs, doc, cell.strs)
		case c.longs != nil:
			addDictValues(c, c.longs, doc, cell.longs)
		case c.dbls != nil:
			addDictValues(c, c.dbls, doc, cell.dbls)
		case c.metricIsLong:
			v := cell.longs[0]
			if doc == 0 || v < int64(c.mMin) {
				c.mMin = uint64(v)
			}
			if doc == 0 || v > int64(c.mMax) {
				c.mMax = uint64(v)
			}
			c.mLongs.append(v)
		default:
			v := cell.dbls[0]
			if doc == 0 || v < math.Float64frombits(c.mMin) {
				c.mMin = math.Float64bits(v)
			}
			if doc == 0 || v > math.Float64frombits(c.mMax) {
				c.mMax = math.Float64bits(v)
			}
			c.mDbls.append(v)
		}
	}
	s.rows++
	return nil
}

func addDictValues[T cmp.Ordered](c *mutableColumn, d *dict[T], doc uint32, vals []T) {
	for _, v := range vals {
		id := d.index(c.mu, v)
		c.ids.append(id)
		if c.postings == nil {
			continue
		}
		if int(id) == c.postings.n {
			c.postings.append(&posting{})
		}
		p := c.postings.view(c.postings.n)[id]
		if k := p.docs.n; k == 0 || p.docs.view(k)[k-1] != doc { // a document repeating a value is posted once
			p.docs.append(doc)
			p.n.Store(uint32(p.docs.n))
		}
	}
	if !c.spec.SingleValue {
		c.mvEnd.append(uint32(c.ids.n))
	}
}

// publish moves the boundary up to the rows appended so far. Stores happen
// only for what changed, which after the first rows is the document count.
func (s *MutableSegment) publish() {
	s.seq.Add(1)
	for _, c := range s.cols {
		card, lo, hi := c.boundary()
		if c.pubCard.Load() != card {
			c.pubCard.Store(card)
		}
		if c.pubMin.Load() != lo {
			c.pubMin.Store(lo)
		}
		if c.pubMax.Load() != hi {
			c.pubMax.Store(hi)
		}
	}
	s.numDocs.Store(int64(s.rows))
	s.seq.Add(1)
}

// boundary is the writer's current cardinality, min and max of the column.
func (c *mutableColumn) boundary() (card uint32, lo, hi uint64) {
	switch {
	case c.strs != nil:
		return uint32(c.strs.values.n), uint64(c.strs.minID), uint64(c.strs.maxID)
	case c.longs != nil:
		return uint32(c.longs.values.n), uint64(c.longs.minID), uint64(c.longs.maxID)
	case c.dbls != nil:
		return uint32(c.dbls.values.n), uint64(c.dbls.minID), uint64(c.dbls.maxID)
	}
	return 0, c.mMin, c.mMax
}

// Snapshot is a consuming segment as of one published boundary: a Reader
// over the documents, dictionary entries and postings below it, unaffected
// by rows appended afterwards.
type Snapshot struct {
	seg     *MutableSegment
	numDocs int
	cols    []snapColumn // schema order
}

// Snapshot captures the current boundary. The boundary's words are read
// between two reads of seq and re-read if a publish ran in between, so they
// belong to one row; the arrays are read afterwards and are then at least as
// long as that boundary needs.
func (s *MutableSegment) Snapshot() *Snapshot {
	snap := &Snapshot{seg: s, cols: make([]snapColumn, len(s.cols))}
	for {
		seq := s.seq.Load()
		if seq&1 == 1 {
			runtime.Gosched()
			continue
		}
		snap.numDocs = int(s.numDocs.Load())
		for i, c := range s.cols {
			sc := &snap.cols[i]
			sc.card, sc.min, sc.max = int(c.pubCard.Load()), c.pubMin.Load(), c.pubMax.Load()
		}
		if s.seq.Load() == seq {
			break
		}
	}
	n := snap.numDocs
	for i, c := range s.cols {
		sc := &snap.cols[i]
		sc.col, sc.numDocs = c, n
		switch {
		case c.strs != nil:
			sc.strs = c.strs.values.view(sc.card)
		case c.longs != nil:
			sc.longs = c.longs.values.view(sc.card)
		case c.dbls != nil:
			sc.dbls = c.dbls.values.view(sc.card)
		case c.metricIsLong:
			sc.mLongs = c.mLongs.view(n)
		default:
			sc.mDbls = c.mDbls.view(n)
		}
		if c.spec.Kind == Metric {
			continue
		}
		if c.spec.SingleValue {
			sc.ids = c.ids.view(n)
		} else if n > 0 {
			sc.mvEnd = c.mvEnd.view(n)
			sc.ids = c.ids.view(int(sc.mvEnd.at(n - 1)))
		}
		if c.postings != nil {
			sc.postings = c.postings.view(sc.card)
		}
	}
	return snap
}

// Name returns the segment name.
func (s *Snapshot) Name() string { return s.seg.name }

// Schema returns the segment schema.
func (s *Snapshot) Schema() *Schema { return s.seg.schema }

// NumDocs returns the snapshot's document count.
func (s *Snapshot) NumDocs() int { return s.numDocs }

// Column returns the named column, or nil.
func (s *Snapshot) Column(name string) ColumnReader {
	if i := s.seg.schema.FieldIndex(name); i >= 0 {
		return &s.cols[i]
	}
	return nil
}

// snapColumn is one column of a Snapshot. Every read is bounded by the
// snapshot's document count and cardinality and takes no lock; only IndexOf,
// asked once per predicate at plan time, takes the writer's mutex.
type snapColumn struct {
	col      *mutableColumn
	numDocs  int
	card     int
	min, max uint64 // dictionary column: ids; metric: value bits

	strs  []string // the dictionary, id → value: one of these three
	longs []int64
	dbls  []float64

	ids      chunkView[uint32]
	mvEnd    chunkView[uint32]
	postings []*posting
	mLongs   chunkView[int64]
	mDbls    chunkView[float64]
}

func (c *snapColumn) Spec() FieldSpec     { return c.col.spec }
func (c *snapColumn) NumDocs() int        { return c.numDocs }
func (c *snapColumn) HasDictionary() bool { return c.col.spec.Kind != Metric }
func (c *snapColumn) Cardinality() int    { return c.card }
func (c *snapColumn) DictSorted() bool    { return false }

func (c *snapColumn) Value(id int) any {
	switch {
	case c.strs != nil:
		return c.strs[id]
	case c.dbls != nil:
		return c.dbls[id]
	case c.col.spec.Type == TypeBoolean:
		return c.longs[id] != 0
	}
	return c.longs[id]
}

// DictStrings returns the dictionary's values in dict-id order when it holds
// strings, nil otherwise; read-only, like Column.DictStrings.
func (c *snapColumn) DictStrings() []string { return c.strs }

// DictLongs is DictStrings for a dictionary of int64 values.
func (c *snapColumn) DictLongs() []int64 {
	if c.col.spec.Type == TypeBoolean {
		return nil
	}
	return c.longs
}

func (c *snapColumn) IndexOf(v any) (int, bool) {
	switch x := v.(type) {
	case string:
		if d := c.col.strs; d != nil {
			return d.lookup(c.col.mu, x, c.card)
		}
	case float64:
		if d := c.col.dbls; d != nil {
			return d.lookup(c.col.mu, x, c.card)
		}
	case int64:
		if d := c.col.longs; d != nil && c.col.spec.Type != TypeBoolean {
			return d.lookup(c.col.mu, x, c.card)
		}
	case bool:
		if d := c.col.longs; d != nil && c.col.spec.Type == TypeBoolean {
			var b int64
			if x {
				b = 1
			}
			return d.lookup(c.col.mu, b, c.card)
		}
	}
	return 0, false
}

func (c *snapColumn) Range(lower, upper any, loIncl, hiIncl bool) (int, int) {
	panic("segment: Range on unsorted mutable column")
}

func (c *snapColumn) DictID(doc int) int { return int(c.ids.at(doc)) }

func (c *snapColumn) DictIDsMV(doc int, buf []int) []int {
	start := 0
	if doc > 0 {
		start = int(c.mvEnd.at(doc - 1))
	}
	for i, end := start, int(c.mvEnd.at(doc)); i < end; i++ {
		buf = append(buf, int(c.ids.at(i)))
	}
	return buf
}

func (c *snapColumn) HasInverted() bool { return c.col.postings != nil }

// Inverted returns the documents below the snapshot that hold a dict id.
func (c *snapColumn) Inverted(id int) *bitmap.Bitmap {
	bm := bitmap.New()
	if id < 0 || id >= len(c.postings) {
		return bm
	}
	p := c.postings[id]
	docs := p.docs.view(int(p.n.Load()))
	for len(docs) > 0 && int(docs[len(docs)-1]) >= c.numDocs {
		docs = docs[:len(docs)-1]
	}
	bm.AddMany(docs)
	return bm
}

func (c *snapColumn) IsSorted() bool { return false }
func (c *snapColumn) DocIDRange(lo, hi int) (int, int) {
	panic("segment: DocIDRange on mutable column")
}

func (c *snapColumn) Long(doc int) int64 {
	if c.mLongs != nil {
		return c.mLongs.at(doc)
	}
	return int64(c.mDbls.at(doc))
}

func (c *snapColumn) Double(doc int) float64 {
	if c.mLongs != nil {
		return float64(c.mLongs.at(doc))
	}
	return c.mDbls.at(doc)
}

func (c *snapColumn) DictIDs(docs []int, dst []uint32) {
	for i, d := range docs {
		dst[i] = c.ids.at(d)
	}
}

func (c *snapColumn) Longs(docs []int, dst []int64) {
	for i, d := range docs {
		dst[i] = c.Long(d)
	}
}

func (c *snapColumn) Doubles(docs []int, dst []float64) {
	for i, d := range docs {
		dst[i] = c.Double(d)
	}
}

func (c *snapColumn) DictIDRange(start int, dst []uint32) { c.ids.copyTo(start, dst) }

// DictIDMatches tests the ids where the chunks hold them.
func (c *snapColumn) DictIDMatches(start, n int, ranges []IDRange, dst []uint64) {
	clear(dst[:bitWords(n)])
	for i := 0; i < n; {
		for _, id := range c.ids.span(start+i, n-i) {
			for _, r := range ranges {
				if r.Has(id) {
					dst[i>>6] |= 1 << (i & 63)
					break
				}
			}
			i++
		}
	}
}

func (c *snapColumn) LongRange(start int, dst []int64) {
	if c.mLongs != nil {
		c.mLongs.copyTo(start, dst)
		return
	}
	for len(dst) > 0 {
		src := c.mDbls.span(start, len(dst))
		for i, v := range src {
			dst[i] = int64(v)
		}
		dst, start = dst[len(src):], start+len(src)
	}
}

func (c *snapColumn) DoubleRange(start int, dst []float64) {
	if c.mDbls != nil {
		c.mDbls.copyTo(start, dst)
		return
	}
	for len(dst) > 0 {
		src := c.mLongs.span(start, len(dst))
		for i, v := range src {
			dst[i] = float64(v)
		}
		dst, start = dst[len(src):], start+len(src)
	}
}

// MinValue and MaxValue are the running statistics the writer published with
// the boundary; an empty column reports its type's zero.
func (c *snapColumn) MinValue() any { return c.stat(c.min) }
func (c *snapColumn) MaxValue() any { return c.stat(c.max) }

func (c *snapColumn) stat(w uint64) any {
	switch {
	case c.numDocs == 0:
		return DefaultValue(FieldSpec{Type: c.col.spec.Type, SingleValue: true})
	case c.col.spec.Kind != Metric:
		return c.Value(int(w))
	case c.col.metricIsLong:
		return int64(w)
	}
	return math.Float64frombits(w)
}

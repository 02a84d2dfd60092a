package segment

import (
	"fmt"
	"sync"

	"pinot/internal/bitmap"
)

// MutableSegment is the realtime consuming segment: rows append as they
// arrive from the stream, dictionaries grow hash-based in arrival order, and
// an optional realtime inverted index is maintained incrementally. Queries
// may run concurrently with appends; a RWMutex guards the growing state and
// readers snapshot the doc count at query start.
type MutableSegment struct {
	mu      sync.RWMutex
	name    string
	table   string
	schema  *Schema
	cfg     IndexConfig
	numDocs int
	columns map[string]*mutableColumn
}

type mutableColumn struct {
	seg      *MutableSegment
	spec     FieldSpec
	dict     *MutableDictionary
	ids      []int32   // single-value dict ids per doc
	mvIDs    [][]int32 // multi-value dict ids per doc
	longs    []int64   // raw metric storage
	doubles  []float64
	inverted map[int]*bitmap.Bitmap // realtime inverted index, may be nil
}

// NewMutableSegment returns an empty consuming segment. Inverted columns
// listed in cfg get realtime inverted indexes; SortColumn only takes effect
// when the segment is sealed.
func NewMutableSegment(table, name string, schema *Schema, cfg IndexConfig) (*MutableSegment, error) {
	ms := &MutableSegment{name: name, table: table, schema: schema, cfg: cfg}
	ms.columns = make(map[string]*mutableColumn, len(schema.Fields))
	inv := make(map[string]bool)
	for _, ic := range cfg.InvertedColumns {
		if _, ok := schema.Field(ic); !ok {
			return nil, fmt.Errorf("segment: inverted column %q not in schema", ic)
		}
		inv[ic] = true
	}
	for _, f := range schema.Fields {
		mc := &mutableColumn{seg: ms, spec: f}
		if f.Kind != Metric {
			mc.dict = NewMutableDictionary(f.Type)
			if inv[f.Name] {
				mc.inverted = make(map[int]*bitmap.Bitmap)
			}
		}
		ms.columns[f.Name] = mc
	}
	return ms, nil
}

// Name returns the segment name.
func (s *MutableSegment) Name() string { return s.name }

// Schema returns the segment schema.
func (s *MutableSegment) Schema() *Schema { return s.schema }

// NumDocs returns the current document count.
func (s *MutableSegment) NumDocs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.numDocs
}

// Column returns the named column, or nil.
func (s *MutableSegment) Column(name string) ColumnReader {
	if c, ok := s.columns[name]; ok {
		return c
	}
	return nil
}

// Add appends one row (canonical values aligned with the schema).
func (s *MutableSegment) Add(row Row) error {
	if len(row) != len(s.schema.Fields) {
		return fmt.Errorf("segment: row has %d values, schema has %d fields", len(row), len(s.schema.Fields))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	doc := s.numDocs
	for i, f := range s.schema.Fields {
		mc := s.columns[f.Name]
		v := row[i]
		if f.Kind == Metric {
			if f.Type.Integral() {
				x, ok := v.(int64)
				if !ok {
					return fmt.Errorf("segment: column %q: want int64, got %T", f.Name, v)
				}
				mc.longs = append(mc.longs, x)
			} else {
				x, ok := v.(float64)
				if !ok {
					return fmt.Errorf("segment: column %q: want float64, got %T", f.Name, v)
				}
				mc.doubles = append(mc.doubles, x)
			}
			continue
		}
		if f.SingleValue {
			id := mc.dict.Index(v)
			mc.ids = append(mc.ids, int32(id))
			if mc.inverted != nil {
				bm := mc.inverted[id]
				if bm == nil {
					bm = bitmap.New()
					mc.inverted[id] = bm
				}
				bm.Add(uint32(doc))
			}
			continue
		}
		var ids []int32
		addOne := func(x any) {
			id := mc.dict.Index(x)
			ids = append(ids, int32(id))
			if mc.inverted != nil {
				bm := mc.inverted[id]
				if bm == nil {
					bm = bitmap.New()
					mc.inverted[id] = bm
				}
				bm.Add(uint32(doc))
			}
		}
		switch xs := v.(type) {
		case []int64:
			for _, x := range xs {
				addOne(x)
			}
		case []float64:
			for _, x := range xs {
				addOne(x)
			}
		case []string:
			for _, x := range xs {
				addOne(x)
			}
		case []bool:
			for _, x := range xs {
				addOne(x)
			}
		default:
			return fmt.Errorf("segment: column %q: want slice, got %T", f.Name, v)
		}
		mc.mvIDs = append(mc.mvIDs, ids)
	}
	s.numDocs++
	return nil
}

// AddMap appends a row given as a column-name→value map.
func (s *MutableSegment) AddMap(m map[string]any) error {
	row, err := s.schema.RowFromMap(m)
	if err != nil {
		return err
	}
	return s.Add(row)
}

// Row reconstructs the canonical row at a document position.
func (s *MutableSegment) Row(doc int) Row {
	row := make(Row, len(s.schema.Fields))
	for i, f := range s.schema.Fields {
		mc := s.columns[f.Name]
		switch {
		case f.Kind == Metric && f.Type.Integral():
			row[i] = mc.longs[doc]
		case f.Kind == Metric:
			row[i] = mc.doubles[doc]
		case f.SingleValue:
			row[i] = mc.dict.Value(int(mc.ids[doc]))
		default:
			ids := mc.mvIDs[doc]
			switch {
			case f.Type.Integral():
				vals := make([]int64, len(ids))
				for j, id := range ids {
					vals[j] = mc.dict.Value(int(id)).(int64)
				}
				row[i] = vals
			case f.Type.Numeric():
				vals := make([]float64, len(ids))
				for j, id := range ids {
					vals[j] = mc.dict.Value(int(id)).(float64)
				}
				row[i] = vals
			case f.Type == TypeBoolean:
				vals := make([]bool, len(ids))
				for j, id := range ids {
					vals[j] = mc.dict.Value(int(id)).(bool)
				}
				row[i] = vals
			default:
				vals := make([]string, len(ids))
				for j, id := range ids {
					vals[j] = mc.dict.Value(int(id)).(string)
				}
				row[i] = vals
			}
		}
	}
	return row
}

// Seal converts the consuming segment into an immutable segment, sorting the
// dictionary, remapping ids, applying the configured sort column and
// building configured inverted indexes.
func (s *MutableSegment) Seal() (*Segment, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, err := NewBuilder(s.table, s.name, s.schema, s.cfg)
	if err != nil {
		return nil, err
	}
	for doc := 0; doc < s.numDocs; doc++ {
		if err := b.Add(s.Row(doc)); err != nil {
			return nil, err
		}
	}
	seg, err := b.Build()
	if err != nil {
		return nil, err
	}
	seg.meta.Realtime = true
	return seg, nil
}

func (c *mutableColumn) Spec() FieldSpec     { return c.spec }
func (c *mutableColumn) NumDocs() int        { return c.seg.NumDocs() }
func (c *mutableColumn) HasDictionary() bool { return c.dict != nil }
func (c *mutableColumn) Cardinality() int {
	if c.dict == nil {
		return 0
	}
	c.seg.mu.RLock()
	defer c.seg.mu.RUnlock()
	return c.dict.Len()
}
func (c *mutableColumn) DictSorted() bool { return false }
func (c *mutableColumn) Value(id int) any {
	c.seg.mu.RLock()
	defer c.seg.mu.RUnlock()
	return c.dict.Value(id)
}
func (c *mutableColumn) IndexOf(v any) (int, bool) {
	c.seg.mu.RLock()
	defer c.seg.mu.RUnlock()
	return c.dict.IndexOf(v)
}
func (c *mutableColumn) Range(lower, upper any, loIncl, hiIncl bool) (int, int) {
	panic("segment: Range on unsorted mutable column")
}
func (c *mutableColumn) DictID(doc int) int { return int(c.ids[doc]) }
func (c *mutableColumn) DictIDsMV(doc int, buf []int) []int {
	for _, id := range c.mvIDs[doc] {
		buf = append(buf, int(id))
	}
	return buf
}
func (c *mutableColumn) HasInverted() bool { return c.inverted != nil }
func (c *mutableColumn) Inverted(id int) *bitmap.Bitmap {
	c.seg.mu.RLock()
	defer c.seg.mu.RUnlock()
	if bm := c.inverted[id]; bm != nil {
		return bm
	}
	return bitmap.New()
}
func (c *mutableColumn) IsSorted() bool               { return false }
func (c *mutableColumn) DocIDRange(id int) (int, int) { panic("segment: DocIDRange on mutable column") }
func (c *mutableColumn) Long(doc int) int64 {
	if c.spec.Type.Integral() {
		return c.longs[doc]
	}
	return int64(c.doubles[doc])
}
func (c *mutableColumn) Double(doc int) float64 {
	if c.spec.Type.Integral() {
		return float64(c.longs[doc])
	}
	return c.doubles[doc]
}
func (c *mutableColumn) DictIDs(docs []int, dst []uint32) {
	for i, d := range docs {
		dst[i] = uint32(c.ids[d])
	}
}
func (c *mutableColumn) Longs(docs []int, dst []int64) {
	if c.spec.Type.Integral() {
		for i, d := range docs {
			dst[i] = c.longs[d]
		}
		return
	}
	for i, d := range docs {
		dst[i] = int64(c.doubles[d])
	}
}
func (c *mutableColumn) Doubles(docs []int, dst []float64) {
	if c.spec.Type.Integral() {
		for i, d := range docs {
			dst[i] = float64(c.longs[d])
		}
		return
	}
	for i, d := range docs {
		dst[i] = c.doubles[d]
	}
}
func (c *mutableColumn) DictIDRange(start int, dst []uint32) {
	for i, id := range c.ids[start : start+len(dst)] {
		dst[i] = uint32(id)
	}
}
func (c *mutableColumn) LongRange(start int, dst []int64) {
	if c.spec.Type.Integral() {
		copy(dst, c.longs[start:start+len(dst)])
		return
	}
	for i, v := range c.doubles[start : start+len(dst)] {
		dst[i] = int64(v)
	}
}
func (c *mutableColumn) DoubleRange(start int, dst []float64) {
	if c.spec.Type.Integral() {
		for i, v := range c.longs[start : start+len(dst)] {
			dst[i] = float64(v)
		}
		return
	}
	copy(dst, c.doubles[start:start+len(dst)])
}
func (c *mutableColumn) MinValue() any {
	c.seg.mu.RLock()
	defer c.seg.mu.RUnlock()
	if c.dict != nil {
		return c.dict.Min()
	}
	return c.rawMin()
}
func (c *mutableColumn) MaxValue() any {
	c.seg.mu.RLock()
	defer c.seg.mu.RUnlock()
	if c.dict != nil {
		return c.dict.Max()
	}
	return c.rawMax()
}

func (c *mutableColumn) rawMin() any {
	if c.spec.Type.Integral() {
		if len(c.longs) == 0 {
			return int64(0)
		}
		min := c.longs[0]
		for _, v := range c.longs[1:] {
			if v < min {
				min = v
			}
		}
		return min
	}
	if len(c.doubles) == 0 {
		return float64(0)
	}
	min := c.doubles[0]
	for _, v := range c.doubles[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

func (c *mutableColumn) rawMax() any {
	if c.spec.Type.Integral() {
		if len(c.longs) == 0 {
			return int64(0)
		}
		max := c.longs[0]
		for _, v := range c.longs[1:] {
			if v > max {
				max = v
			}
		}
		return max
	}
	if len(c.doubles) == 0 {
		return float64(0)
	}
	max := c.doubles[0]
	for _, v := range c.doubles[1:] {
		if v > max {
			max = v
		}
	}
	return max
}

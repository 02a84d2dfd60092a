package segment

import (
	"fmt"

	"pinot/internal/bitmap"
)

// DocRange is a half-open [Start, End) range of document ids.
type DocRange struct {
	Start int
	End   int
}

// ColumnReader is the uniform read interface the query engine and star-tree
// builder use for both immutable and mutable (realtime) columns.
type ColumnReader interface {
	// Spec returns the column's field spec.
	Spec() FieldSpec
	// NumDocs returns the number of documents in the column.
	NumDocs() int
	// HasDictionary reports whether the column is dictionary-encoded
	// (dimensions and time columns are; raw metrics are not).
	HasDictionary() bool
	// Cardinality returns the dictionary size, or 0 without a dictionary.
	Cardinality() int
	// DictSorted reports whether ascending dict ids are ascending values.
	DictSorted() bool
	// Value maps a dict id to its value.
	Value(id int) any
	// IndexOf maps a canonical value to its dict id.
	IndexOf(v any) (int, bool)
	// Range returns the dict-id interval [lo, hi) for a value range.
	// Only valid when DictSorted reports true.
	Range(lower, upper any, loIncl, hiIncl bool) (int, int)
	// DictID returns the dict id at a document (single-value columns).
	DictID(doc int) int
	// DictIDsMV appends the dict ids at a document to buf (multi-value).
	DictIDsMV(doc int, buf []int) []int
	// HasInverted reports whether an inverted index is available.
	HasInverted() bool
	// Inverted returns the posting bitmap for a dict id.
	Inverted(id int) *bitmap.Bitmap
	// IsSorted reports whether the column is physically sorted, enabling
	// the contiguous-range fast path of paper section 4.2.
	IsSorted() bool
	// DocIDRange returns the contiguous doc range [start, end) holding the
	// dict ids [lo, hi). Only valid when IsSorted reports true.
	DocIDRange(lo, hi int) (start, end int)
	// Long returns the raw metric value at a document as int64.
	Long(doc int) int64
	// Double returns the raw metric value at a document as float64.
	Double(doc int) float64
	// DictIDs fills dst with the dict ids at the given ascending doc
	// positions, the block-at-a-time counterpart of DictID. len(dst) must
	// equal len(docs).
	DictIDs(docs []int, dst []uint32)
	// Longs fills dst with the raw metric values at the given ascending doc
	// positions. len(dst) must equal len(docs).
	Longs(docs []int, dst []int64)
	// Doubles fills dst with the raw metric values at the given ascending
	// doc positions. len(dst) must equal len(docs).
	Doubles(docs []int, dst []float64)
	// DictIDRange fills dst with the dict ids of documents
	// [start, start+len(dst)), the sequential form of DictIDs: no doc list
	// to build or inspect.
	DictIDRange(start int, dst []uint32)
	// LongRange fills dst with the raw metric values of documents
	// [start, start+len(dst)).
	LongRange(start int, dst []int64)
	// DoubleRange fills dst with the raw metric values of documents
	// [start, start+len(dst)).
	DoubleRange(start int, dst []float64)
	// MinValue and MaxValue return column statistics.
	MinValue() any
	MaxValue() any
}

// Reader is the uniform read interface over immutable and mutable segments.
type Reader interface {
	Name() string
	Schema() *Schema
	NumDocs() int
	// Column returns the named column, or nil if the segment has none.
	Column(name string) ColumnReader
}

// Column is an immutable column: dictionary + forward index for dimensions,
// raw storage for metrics, plus an optional inverted index. In a loaded
// segment every array under it is a view of the segment's buffer.
type Column struct {
	spec     FieldSpec
	numDocs  int
	dict     Dictionary
	fwd      *SVForwardIndex
	mv       *MVForwardIndex
	metric   MetricColumn
	inverted []bitmap.Bitmap
	// sorted marks a single-value column whose dict ids never decrease in
	// document order: the documents of an id range are found by binary
	// search over the forward index itself.
	sorted bool
}

// Spec returns the column's field spec.
func (c *Column) Spec() FieldSpec { return c.spec }

// NumDocs returns the document count.
func (c *Column) NumDocs() int { return c.numDocs }

// HasDictionary reports whether the column is dictionary-encoded.
func (c *Column) HasDictionary() bool { return c.dict != nil }

// Cardinality returns the dictionary size, or 0 for raw columns.
func (c *Column) Cardinality() int {
	if c.dict == nil {
		return 0
	}
	return c.dict.Len()
}

// DictSorted reports whether the dictionary is value-sorted (always true for
// immutable columns).
func (c *Column) DictSorted() bool { return c.dict != nil }

// Value maps a dict id to its value.
func (c *Column) Value(id int) any { return c.dict.Value(id) }

// DictStrings returns the dictionary's values in dict-id order when it holds
// strings, nil otherwise. The slice is the dictionary's own and read-only: a
// reader of many values takes them from it instead of boxing each through
// Value.
func (c *Column) DictStrings() []string {
	if d, ok := c.dict.(*sortedDictionary[string]); ok {
		return d.values
	}
	return nil
}

// DictLongs is DictStrings for a dictionary of int64 values.
func (c *Column) DictLongs() []int64 {
	if d, ok := c.dict.(*sortedDictionary[int64]); ok {
		return d.values
	}
	return nil
}

// IndexOf maps a canonical value to its dict id.
func (c *Column) IndexOf(v any) (int, bool) { return c.dict.IndexOf(v) }

// Range returns the dict-id interval [lo, hi) matching a value range.
func (c *Column) Range(lower, upper any, loIncl, hiIncl bool) (int, int) {
	return c.dict.Range(lower, upper, loIncl, hiIncl)
}

// DictID returns the dict id at a document.
func (c *Column) DictID(doc int) int { return c.fwd.Get(doc) }

// DictIDsMV appends the dict ids at a document to buf.
func (c *Column) DictIDsMV(doc int, buf []int) []int { return c.mv.Get(doc, buf) }

// HasInverted reports whether the column has an inverted index.
func (c *Column) HasInverted() bool { return c.inverted != nil }

// Inverted returns the posting list for a dict id. It is read-only.
func (c *Column) Inverted(id int) *bitmap.Bitmap { return &c.inverted[id] }

// IsSorted reports whether the column is physically sorted.
func (c *Column) IsSorted() bool { return c.sorted }

// DocIDRange returns the contiguous document range holding the dict ids
// [lo, hi) of a physically sorted column.
func (c *Column) DocIDRange(lo, hi int) (int, int) {
	start := c.fwd.packed.search(0, uint32(lo))
	return start, c.fwd.packed.search(start, uint32(hi))
}

// Long returns the raw metric value as int64.
func (c *Column) Long(doc int) int64 { return c.metric.Long(doc) }

// Double returns the raw metric value as float64.
func (c *Column) Double(doc int) float64 { return c.metric.Double(doc) }

// DictIDs fills dst with the dict ids at the given ascending doc positions.
// Contiguous runs hit the packed bulk-unpack kernel.
func (c *Column) DictIDs(docs []int, dst []uint32) {
	if docsContiguous(docs) {
		c.fwd.GetBlock(docs[0], dst[:len(docs)])
		return
	}
	for i, d := range docs {
		dst[i] = uint32(c.fwd.Get(d))
	}
}

// DictIDRange fills dst with the dict ids of documents [start, start+len(dst))
// through the packed bulk-unpack kernel.
func (c *Column) DictIDRange(start int, dst []uint32) { c.fwd.GetBlock(start, dst) }

// Longs fills dst with the raw metric values at the given doc positions.
func (c *Column) Longs(docs []int, dst []int64) { c.metric.Longs(docs, dst) }

// Doubles fills dst with the raw metric values at the given doc positions.
func (c *Column) Doubles(docs []int, dst []float64) { c.metric.Doubles(docs, dst) }

// LongRange fills dst with the raw metric values of documents
// [start, start+len(dst)).
func (c *Column) LongRange(start int, dst []int64) { c.metric.LongRange(start, dst) }

// DoubleRange fills dst with the raw metric values of documents
// [start, start+len(dst)).
func (c *Column) DoubleRange(start int, dst []float64) { c.metric.DoubleRange(start, dst) }

// MinValue returns the smallest value in the column.
func (c *Column) MinValue() any {
	if c.dict != nil {
		return c.dict.Min()
	}
	if c.metric.Type() == TypeLong {
		return c.metric.MinLong()
	}
	return c.metric.MinDouble()
}

// MaxValue returns the largest value in the column.
func (c *Column) MaxValue() any {
	if c.dict != nil {
		return c.dict.Max()
	}
	if c.metric.Type() == TypeLong {
		return c.metric.MaxLong()
	}
	return c.metric.MaxDouble()
}

// BitsPerValue returns the forward-index packed width (0 for raw columns).
func (c *Column) BitsPerValue() int {
	switch {
	case c.fwd != nil:
		return c.fwd.BitsPerValue()
	case c.mv != nil:
		return int(c.mv.packed.width)
	}
	return 0
}

// buildInverted constructs the inverted index from the forward index.
func (c *Column) buildInverted() {
	postings := make([]bitmap.Bitmap, c.dict.Len())
	if c.spec.SingleValue {
		for doc := 0; doc < c.numDocs; doc++ {
			postings[c.fwd.Get(doc)].Add(uint32(doc))
		}
	} else {
		var buf []int
		for doc := 0; doc < c.numDocs; doc++ {
			buf = c.mv.Get(doc, buf[:0])
			for _, id := range buf {
				postings[id].Add(uint32(doc))
			}
		}
	}
	c.inverted = postings
}

// ColumnMetadata summarizes a column for the segment metadata file.
type ColumnMetadata struct {
	Name          string    `json:"name"`
	Type          DataType  `json:"type"`
	Kind          FieldKind `json:"kind"`
	SingleValue   bool      `json:"singleValue"`
	Cardinality   int       `json:"cardinality"`
	Sorted        bool      `json:"sorted"`
	HasDictionary bool      `json:"hasDictionary"`
	HasInverted   bool      `json:"hasInverted"`
	BitsPerValue  int       `json:"bitsPerValue"`
	// MinValue and MaxValue are display-oriented renderings; pruning and
	// metadata-only answers use the typed Zone instead, which survives the
	// JSON round-trip without losing the value type.
	MinValue string `json:"minValue"`
	MaxValue string `json:"maxValue"`
	// Zone holds the typed min/max plus the optional dictionary bloom
	// filter used for segment pruning without touching column data.
	Zone *ZoneMap `json:"zone,omitempty"`
}

// Metadata describes a segment: identity, schema, document count, time range
// and per-column statistics.
type Metadata struct {
	Name       string           `json:"name"`
	Table      string           `json:"table"`
	Schema     *Schema          `json:"schema"`
	NumDocs    int              `json:"numDocs"`
	SortColumn string           `json:"sortColumn,omitempty"`
	TimeColumn string           `json:"timeColumn,omitempty"`
	MinTime    int64            `json:"minTime"`
	MaxTime    int64            `json:"maxTime"`
	Realtime   bool             `json:"realtime"`
	Columns    []ColumnMetadata `json:"columns"`
}

// Segment is an immutable collection of records in columnar form.
type Segment struct {
	meta         Metadata
	columns      map[string]*Column
	starTreeData []byte
}

// Name returns the segment name.
func (s *Segment) Name() string { return s.meta.Name }

// Schema returns the segment's schema.
func (s *Segment) Schema() *Schema { return s.meta.Schema }

// NumDocs returns the number of records.
func (s *Segment) NumDocs() int { return s.meta.NumDocs }

// Metadata returns a copy of the segment metadata.
func (s *Segment) Metadata() Metadata { return s.meta }

// Column returns the named column, or nil.
func (s *Segment) Column(name string) ColumnReader {
	if c, ok := s.columns[name]; ok {
		return c
	}
	return nil
}

// column returns the concrete column for internal use.
func (s *Segment) column(name string) *Column { return s.columns[name] }

// ColumnMeta returns the persisted metadata of a column, or nil if the
// segment has none. The pruning tiers read zone maps through it so a pruning
// decision never touches forward indexes or dictionaries.
func (s *Segment) ColumnMeta(name string) *ColumnMetadata {
	for i := range s.meta.Columns {
		if s.meta.Columns[i].Name == name {
			return &s.meta.Columns[i]
		}
	}
	return nil
}

// AddInvertedIndex builds an inverted index for a column on demand, the
// reindex-on-the-fly capability described in paper sections 3.2 and 5.2.
// It is idempotent.
func (s *Segment) AddInvertedIndex(name string) error {
	c, ok := s.columns[name]
	if !ok {
		return fmt.Errorf("segment %s: no column %q", s.meta.Name, name)
	}
	if c.dict == nil {
		return fmt.Errorf("segment %s: column %q has no dictionary", s.meta.Name, name)
	}
	if c.inverted != nil {
		return nil
	}
	c.buildInverted()
	for i := range s.meta.Columns {
		if s.meta.Columns[i].Name == name {
			s.meta.Columns[i].HasInverted = true
		}
	}
	return nil
}

// StarTreeData returns the serialized star-tree index bytes, or nil.
func (s *Segment) StarTreeData() []byte { return s.starTreeData }

// SetStarTreeData attaches serialized star-tree index bytes to the segment.
func (s *Segment) SetStarTreeData(b []byte) { s.starTreeData = b }

// SortedOn reports whether the named column is physically sorted.
func (s *Segment) SortedOn(name string) bool {
	c, ok := s.columns[name]
	return ok && c.IsSorted()
}

// TimeRange returns the [min, max] values of the time column, if any.
func (s *Segment) TimeRange() (min, max int64, ok bool) {
	if s.meta.TimeColumn == "" {
		return 0, 0, false
	}
	return s.meta.MinTime, s.meta.MaxTime, true
}

// ReadRow reconstructs the canonical row at a document position of any
// segment reader, used by minion rewrite tasks.
func ReadRow(r Reader, doc int) Row {
	schema := r.Schema()
	row := make(Row, len(schema.Fields))
	var buf []int
	for i, f := range schema.Fields {
		c := r.Column(f.Name)
		switch {
		case f.Kind == Metric && f.Type.Integral():
			row[i] = c.Long(doc)
		case f.Kind == Metric:
			row[i] = c.Double(doc)
		case f.SingleValue:
			row[i] = c.Value(c.DictID(doc))
		default:
			buf = c.DictIDsMV(doc, buf[:0])
			switch {
			case f.Type.Integral():
				vals := make([]int64, len(buf))
				for j, id := range buf {
					vals[j] = c.Value(id).(int64)
				}
				row[i] = vals
			case f.Type.Numeric():
				vals := make([]float64, len(buf))
				for j, id := range buf {
					vals[j] = c.Value(id).(float64)
				}
				row[i] = vals
			case f.Type == TypeBoolean:
				vals := make([]bool, len(buf))
				for j, id := range buf {
					vals[j] = c.Value(id).(bool)
				}
				row[i] = vals
			default:
				vals := make([]string, len(buf))
				for j, id := range buf {
					vals[j] = c.Value(id).(string)
				}
				row[i] = vals
			}
		}
	}
	return row
}

// defaultColumn surfaces a schema-evolution column on a segment that
// predates it: every document has the field's default value.
type defaultColumn struct {
	spec    FieldSpec
	numDocs int
	value   any
}

// NewDefaultColumn returns a virtual column where every document holds the
// field's default value.
func NewDefaultColumn(spec FieldSpec, numDocs int) ColumnReader {
	v := DefaultValue(spec)
	if !spec.SingleValue {
		switch xs := v.(type) {
		case []int64:
			v = xs[0]
		case []float64:
			v = xs[0]
		case []bool:
			v = xs[0]
		case []string:
			v = xs[0]
		}
	}
	return &defaultColumn{spec: spec, numDocs: numDocs, value: v}
}

func (c *defaultColumn) Spec() FieldSpec     { return c.spec }
func (c *defaultColumn) NumDocs() int        { return c.numDocs }
func (c *defaultColumn) HasDictionary() bool { return c.spec.Kind != Metric }
func (c *defaultColumn) Cardinality() int {
	if c.spec.Kind == Metric {
		return 0
	}
	return 1
}
func (c *defaultColumn) DictSorted() bool { return true }
func (c *defaultColumn) Value(id int) any { return c.value }
func (c *defaultColumn) IndexOf(v any) (int, bool) {
	if v == c.value {
		return 0, true
	}
	return 0, false
}
func (c *defaultColumn) Range(lower, upper any, loIncl, hiIncl bool) (int, int) {
	inLower := lower == nil || CompareValues(c.value, lower) > 0 || (loIncl && CompareValues(c.value, lower) == 0)
	inUpper := upper == nil || CompareValues(c.value, upper) < 0 || (hiIncl && CompareValues(c.value, upper) == 0)
	if inLower && inUpper {
		return 0, 1
	}
	return 0, 0
}
func (c *defaultColumn) DictID(doc int) int                 { return 0 }
func (c *defaultColumn) DictIDsMV(doc int, buf []int) []int { return append(buf, 0) }
func (c *defaultColumn) HasInverted() bool                  { return false }
func (c *defaultColumn) Inverted(id int) *bitmap.Bitmap     { return nil }
func (c *defaultColumn) IsSorted() bool                     { return true }
func (c *defaultColumn) DocIDRange(lo, hi int) (int, int)   { return 0, c.numDocs }
func (c *defaultColumn) Long(doc int) int64 {
	if v, ok := c.value.(int64); ok {
		return v
	}
	return int64(c.value.(float64))
}
func (c *defaultColumn) Double(doc int) float64 {
	if v, ok := c.value.(float64); ok {
		return v
	}
	return float64(c.value.(int64))
}
func (c *defaultColumn) DictIDs(docs []int, dst []uint32)    { c.DictIDRange(0, dst[:len(docs)]) }
func (c *defaultColumn) Longs(docs []int, dst []int64)       { c.LongRange(0, dst[:len(docs)]) }
func (c *defaultColumn) Doubles(docs []int, dst []float64)   { c.DoubleRange(0, dst[:len(docs)]) }
func (c *defaultColumn) DictIDRange(start int, dst []uint32) { clear(dst) }
func (c *defaultColumn) LongRange(start int, dst []int64) {
	v := c.Long(0)
	for i := range dst {
		dst[i] = v
	}
}
func (c *defaultColumn) DoubleRange(start int, dst []float64) {
	v := c.Double(0)
	for i := range dst {
		dst[i] = v
	}
}
func (c *defaultColumn) MinValue() any { return c.value }
func (c *defaultColumn) MaxValue() any { return c.value }

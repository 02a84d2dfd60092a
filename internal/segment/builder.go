package segment

import (
	"cmp"
	"fmt"
	"slices"
)

// IndexConfig selects the physical layout of a built segment.
type IndexConfig struct {
	// SortColumn physically reorders records by this single-value
	// dimension, enabling the contiguous-range execution path of paper
	// section 4.2. Empty means input order is preserved.
	SortColumn string
	// InvertedColumns get bitmap inverted indexes at build time. Indexes
	// can also be added later with Segment.AddInvertedIndex.
	InvertedColumns []string
}

// validate checks the configured columns against a schema: the sort column
// must be a single-value dictionary column, inverted columns dimensions.
func (cfg IndexConfig) validate(schema *Schema) error {
	if cfg.SortColumn != "" {
		f, ok := schema.Field(cfg.SortColumn)
		if !ok {
			return fmt.Errorf("segment: sort column %q not in schema", cfg.SortColumn)
		}
		if !f.SingleValue {
			return fmt.Errorf("segment: sort column %q must be single-value", cfg.SortColumn)
		}
		if f.Kind == Metric {
			return fmt.Errorf("segment: sort column %q must be a dimension", cfg.SortColumn)
		}
	}
	for _, ic := range cfg.InvertedColumns {
		f, ok := schema.Field(ic)
		if !ok {
			return fmt.Errorf("segment: inverted column %q not in schema", ic)
		}
		if f.Kind == Metric {
			return fmt.Errorf("segment: inverted column %q must be a dimension", ic)
		}
	}
	return nil
}

// Builder accumulates rows and produces an immutable Segment. It is a front
// over the consuming segment's columns: Add is the same append with nothing
// published (a build has no readers), Build the same seal. It is not safe
// for concurrent use.
type Builder struct {
	ms *MutableSegment
}

// NewBuilder returns a Builder for a named segment. The sort column, if set,
// must be a single-value dictionary column of the schema.
func NewBuilder(table, name string, schema *Schema, cfg IndexConfig) (*Builder, error) {
	if err := cfg.validate(schema); err != nil {
		return nil, err
	}
	return &Builder{ms: newMutableSegment(table, name, schema, cfg, false)}, nil
}

// Add appends a row. Values must align positionally with the schema fields
// and be canonical (int64/float64/string/bool, or slices for multi-value).
func (b *Builder) Add(row Row) error {
	if err := b.ms.stage(row); err != nil {
		return err
	}
	return b.ms.appendRow(b.ms.row)
}

// Build produces the immutable segment. The builder must not be reused
// afterwards.
func (b *Builder) Build() (*Segment, error) {
	b.ms.publish()
	return b.ms.Snapshot().seal(false)
}

// Seal converts the consuming segment into an immutable segment, sorting the
// dictionary, remapping ids, applying the configured sort column and
// building configured inverted indexes. It is the writer's call: the sealed
// segment holds the rows published so far.
func (s *MutableSegment) Seal() (*Segment, error) {
	if err := s.cfg.validate(s.schema); err != nil {
		return nil, err
	}
	return s.Snapshot().seal(true)
}

// seal builds the immutable form of the snapshot's rows column by column:
// each dictionary is sorted once, arrival-order ids are rewritten through
// the old → new map (and through the sort column's document permutation),
// and packed. No value is boxed or looked up on the way.
func (s *Snapshot) seal(realtime bool) (*Segment, error) {
	n, schema, cfg := s.numDocs, s.seg.schema, s.seg.cfg
	if n == 0 {
		return nil, fmt.Errorf("segment: cannot build empty segment %q", s.seg.name)
	}
	dicts := make([]Dictionary, len(s.cols))
	remaps := make([][]uint32, len(s.cols))
	for i := range s.cols {
		c := &s.cols[i]
		switch {
		case c.col.spec.Kind == Metric:
			continue
		case c.card == 0:
			return nil, fmt.Errorf("segment: multi-value column %q has no values", c.col.spec.Name)
		case c.strs != nil:
			sorted, remap := sortDict(c.strs)
			dicts[i], remaps[i] = &sortedDictionary[string]{sorted}, remap
		case c.dbls != nil:
			sorted, remap := sortDict(c.dbls)
			dicts[i], remaps[i] = &sortedDictionary[float64]{sorted}, remap
		case c.col.spec.Type == TypeBoolean:
			sorted, remap := sortDict(c.longs)
			bools := make([]bool, len(sorted))
			for j, v := range sorted {
				bools[j] = v != 0
			}
			dicts[i], remaps[i] = &boolDictionary{bools}, remap
		default:
			sorted, remap := sortDict(c.longs)
			dicts[i], remaps[i] = &sortedDictionary[int64]{sorted}, remap
		}
	}

	// perm[doc] is the source document of output document doc; nil keeps
	// arrival order. Sorted dict ids ascend with their values, so a counting
	// sort on them is the stable sort by value.
	var perm []uint32
	if cfg.SortColumn != "" {
		i := schema.FieldIndex(cfg.SortColumn)
		c, remap := &s.cols[i], remaps[i]
		next := make([]uint32, c.card+1)
		for doc := 0; doc < n; doc++ {
			next[remap[c.ids.at(doc)]+1]++
		}
		for id := 1; id <= c.card; id++ {
			next[id] += next[id-1]
		}
		perm = make([]uint32, n)
		for doc := 0; doc < n; doc++ {
			id := remap[c.ids.at(doc)]
			perm[next[id]] = uint32(doc)
			next[id]++
		}
	}
	src := func(doc int) int {
		if perm != nil {
			return int(perm[doc])
		}
		return doc
	}

	inverted := make(map[string]bool, len(cfg.InvertedColumns))
	for _, ic := range cfg.InvertedColumns {
		inverted[ic] = true
	}
	columns := make(map[string]*Column, len(s.cols))
	var minTime, maxTime int64
	timeCol := schema.TimeColumn()
	for i := range s.cols {
		c := &s.cols[i]
		f := c.col.spec
		col := &Column{spec: f, numDocs: n, dict: dicts[i]}
		columns[f.Name] = col
		if f.Kind == Metric {
			if c.col.metricIsLong {
				col.metric = newLongMetricColumn(gather(c.mLongs, n, perm))
			} else {
				col.metric = newDoubleMetricColumn(gather(c.mDbls, n, perm))
			}
			continue
		}
		remap, width := remaps[i], bitsNeeded(c.card-1)
		if f.SingleValue {
			p := newPackedInts(n, width)
			col.sorted = true
			prev := uint32(0)
			for doc := 0; doc < n; doc++ {
				id := remap[c.ids.at(src(doc))]
				p.set(doc, id)
				col.sorted = col.sorted && id >= prev
				prev = id
			}
			col.fwd = &SVForwardIndex{packed: p}
		} else {
			start := func(doc int) int {
				if doc == 0 {
					return 0
				}
				return int(c.mvEnd.at(doc - 1))
			}
			offsets := make([]uint32, n+1)
			p := newPackedInts(int(c.mvEnd.at(n-1)), width)
			pos := 0
			for doc := 0; doc < n; doc++ {
				offsets[doc] = uint32(pos)
				from := src(doc)
				for j, end := start(from), int(c.mvEnd.at(from)); j < end; j++ {
					p.set(pos, remap[c.ids.at(j)])
					pos++
				}
			}
			offsets[n] = uint32(pos)
			col.mv = &MVForwardIndex{offsets: offsets, packed: p}
		}
		if inverted[f.Name] {
			col.buildInverted()
		}
		if f.Name == timeCol {
			minTime = col.dict.Min().(int64)
			maxTime = col.dict.Max().(int64)
		}
	}

	meta := Metadata{
		Name:       s.seg.name,
		Table:      s.seg.table,
		Schema:     schema,
		NumDocs:    n,
		SortColumn: cfg.SortColumn,
		TimeColumn: timeCol,
		MinTime:    minTime,
		MaxTime:    maxTime,
		Realtime:   realtime,
	}
	for _, f := range schema.Fields {
		c := columns[f.Name]
		meta.Columns = append(meta.Columns, ColumnMetadata{
			Name:          f.Name,
			Type:          f.Type,
			Kind:          f.Kind,
			SingleValue:   f.SingleValue,
			Cardinality:   c.Cardinality(),
			Sorted:        c.IsSorted(),
			HasDictionary: c.HasDictionary(),
			HasInverted:   c.HasInverted(),
			BitsPerValue:  c.BitsPerValue(),
			MinValue:      fmt.Sprint(c.MinValue()),
			MaxValue:      fmt.Sprint(c.MaxValue()),
			Zone:          buildZoneMap(c),
		})
	}
	return &Segment{meta: meta, columns: columns}, nil
}

// sortDict returns an arrival-order dictionary's values in ascending order
// and the map from arrival-order id to sorted id.
func sortDict[T cmp.Ordered](values []T) (sorted []T, remap []uint32) {
	order := make([]uint32, len(values))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return cmp.Compare(values[a], values[b]) })
	sorted, remap = make([]T, len(values)), make([]uint32, len(values))
	for id, old := range order {
		sorted[id], remap[old] = values[old], uint32(id)
	}
	return sorted, remap
}

// gather copies the first n values of a metric column, through perm when
// there is one.
func gather[T any](v chunkView[T], n int, perm []uint32) []T {
	out := make([]T, n)
	if perm == nil {
		v.copyTo(0, out)
		return out
	}
	for doc, src := range perm {
		out[doc] = v.at(int(src))
	}
	return out
}

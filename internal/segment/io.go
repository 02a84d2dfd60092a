package segment

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"pinot/internal/bitmap"
	"pinot/internal/view"
)

// A stored segment is one buffer, and a loaded segment is views of it
// (DESIGN.md "Immutable segments: one buffer, typed views"):
//
//	header     u32 magic, u32 sections, u32 directory bytes, u32 metadata bytes
//	sections   each starting at the next multiple of its kind's alignment
//	directory  per section, in file order: u8 kind, then uvarint column
//	           (index into the schema's fields), parameter and byte length
//	metadata   the Metadata as JSON
//
// Offsets are not stored: a section starts where the one before it ended,
// rounded up to its alignment, and the last ends where the directory begins,
// so two sections cannot overlap and no byte goes unowned. The writer emits
// kinds in the order of the constants below — 8-byte arrays, then the two
// composite kinds that start 8-aligned, then 4-byte arrays, then bytes — so
// the only padding in a file follows a composite section.
const (
	segMagic    = uint32(0x50_53_46_32) // "PSF2"
	headerBytes = 16
)

type sectionKind uint8

const (
	secDictLongs     sectionKind = iota + 1 // i64 per dictionary value
	secDictDoubles                          // f64 per dictionary value
	secForward                              // packed u64 words; parameter = bits per id
	secMVValues                             // packed u64 words; parameter = bits per id
	secMetricLongs                          // i64 per document
	secMetricDoubles                        // f64 per document
	secInverted                             // bitmap.MarshalPostings, one bitmap per dict id
	secStarTree                             // startree.(*Tree).Marshal; column 0
	secMVOffsets                            // u32 per document, plus one
	secDictStrings                          // appendStrings; parameter = number of values
	secDictBools                            // one byte per dictionary value
)

func (k sectionKind) align() int {
	switch {
	case k <= secStarTree:
		return 8
	case k == secMVOffsets:
		return 4
	}
	return 1
}

// section is one entry of the directory with its payload.
type section struct {
	kind  sectionKind
	col   int
	param uint64
	data  []byte
}

// validate sanity-checks deserialized metadata before any section is
// interpreted against it.
func (m *Metadata) validate() error {
	if m.Schema == nil {
		return errors.New("segment: metadata missing schema")
	}
	if m.Name == "" {
		return errors.New("segment: metadata missing segment name")
	}
	if m.NumDocs <= 0 || m.NumDocs > math.MaxInt32 {
		return fmt.Errorf("segment: metadata has invalid document count %d", m.NumDocs)
	}
	return nil
}

// sections lists what Marshal writes, in file order.
func (s *Segment) sections() []section {
	var out []section
	for i, f := range s.meta.Schema.Fields {
		c := s.columns[f.Name]
		add := func(kind sectionKind, param uint64, data []byte) {
			out = append(out, section{kind, i, param, data})
		}
		switch d := c.dict.(type) {
		case *sortedDictionary[int64]:
			add(secDictLongs, 0, view.Bytes(d.values))
		case *sortedDictionary[float64]:
			add(secDictDoubles, 0, view.Bytes(d.values))
		case *sortedDictionary[string]:
			add(secDictStrings, uint64(len(d.values)), appendStrings(nil, d.values))
		case *boolDictionary:
			add(secDictBools, 0, appendBools(nil, d.values))
		}
		switch {
		case c.fwd != nil:
			add(secForward, uint64(c.fwd.packed.width), view.Bytes(c.fwd.packed.words))
		case c.mv != nil:
			add(secMVOffsets, 0, view.Bytes(c.mv.offsets))
			add(secMVValues, uint64(c.mv.packed.width), view.Bytes(c.mv.packed.words))
		}
		switch m := c.metric.(type) {
		case *longMetricColumn:
			add(secMetricLongs, 0, view.Bytes(m.values))
		case *doubleMetricColumn:
			add(secMetricDoubles, 0, view.Bytes(m.values))
		}
		if c.inverted != nil {
			add(secInverted, 0, bitmap.MarshalPostings(c.inverted))
		}
	}
	if s.starTreeData != nil {
		out = append(out, section{kind: secStarTree, data: s.starTreeData})
	}
	slices.SortStableFunc(out, func(a, b section) int { return writeRank(a.kind) - writeRank(b.kind) })
	return out
}

// writeRank groups kinds whose sections follow one another without padding:
// the 8-byte arrays share a rank, every kind after them has its own.
func writeRank(k sectionKind) int { return max(int(k), int(secMetricDoubles)) }

// Marshal serializes the whole segment (indexes, then metadata) into one
// blob: what the object store keeps and what Unmarshal serves from. Equal
// segments give equal bytes, and Marshal of an unmarshalled blob gives that
// blob.
func (s *Segment) Marshal() ([]byte, error) {
	meta, err := json.Marshal(s.meta)
	if err != nil {
		return nil, err
	}
	secs := s.sections()
	var dir []byte
	size := headerBytes
	for _, sec := range secs {
		size = alignUp(size, sec.kind.align()) + len(sec.data)
		dir = append(dir, byte(sec.kind))
		dir = binary.AppendUvarint(dir, uint64(sec.col))
		dir = binary.AppendUvarint(dir, sec.param)
		dir = binary.AppendUvarint(dir, uint64(len(sec.data)))
	}
	total := uint64(size) + uint64(len(dir)) + uint64(len(meta))
	if total > math.MaxUint32 {
		return nil, fmt.Errorf("segment %s: %d bytes exceed the format's 4 GiB", s.meta.Name, total)
	}
	out := make([]byte, headerBytes, total)
	le := binary.LittleEndian
	le.PutUint32(out[0:], segMagic)
	le.PutUint32(out[4:], uint32(len(secs)))
	le.PutUint32(out[8:], uint32(len(dir)))
	le.PutUint32(out[12:], uint32(len(meta)))
	for _, sec := range secs {
		out = out[:alignUp(len(out), sec.kind.align())] // padding: spare capacity is zero
		out = append(out, sec.data...)
	}
	return append(append(out, dir...), meta...), nil
}

func alignUp(n, a int) int { return (n + a - 1) &^ (a - 1) }

// Unmarshal checks a Marshal blob and returns the segment it holds. The
// segment does not copy the blob, it reads it: packed forward indexes, MV
// offsets, raw metrics, numeric dictionaries, posting lists and the
// star-tree bytes are views of data, string dictionary values point into it.
// data must therefore stay unchanged for as long as the segment, or anything
// that took a string or a slice from it, is in use; a caller that cannot
// promise that passes a copy. Views need data to be 8-byte aligned on a
// little-endian host; whatever is not gets decoded into fresh arrays instead
// (package view), with the same answers.
//
// Every length is checked against the bytes present before anything is
// allocated, and every index a later read follows — dict ids, MV offsets,
// posting lists — is checked here, so hostile bytes produce an error now and
// never a panic under a query.
func Unmarshal(data []byte) (*Segment, error) {
	le := binary.LittleEndian
	if len(data) < headerBytes || le.Uint32(data) != segMagic {
		return nil, errors.New("segment: bad blob magic")
	}
	nsect, dirLen, metaLen := le.Uint32(data[4:]), uint64(le.Uint32(data[8:])), uint64(le.Uint32(data[12:]))
	if headerBytes+dirLen+metaLen > uint64(len(data)) {
		return nil, fmt.Errorf("segment: blob of %d bytes cannot hold %d of directory and %d of metadata", len(data), dirLen, metaLen)
	}
	dirStart := len(data) - int(metaLen) - int(dirLen)
	dir := data[dirStart : dirStart+int(dirLen)]
	s := &Segment{}
	if err := json.Unmarshal(data[dirStart+int(dirLen):], &s.meta); err != nil {
		return nil, fmt.Errorf("segment: corrupt metadata: %w", err)
	}
	if err := s.meta.validate(); err != nil {
		return nil, err
	}
	fields := s.meta.Schema.Fields
	cols := make([]Column, len(fields))
	s.columns = make(map[string]*Column, len(fields))
	for i, f := range fields {
		cols[i] = Column{spec: f, numDocs: s.meta.NumDocs}
		s.columns[f.Name] = &cols[i]
	}

	off := headerBytes
	for i := uint32(0); i < nsect; i++ {
		if len(dir) == 0 {
			return nil, errors.New("segment: directory cut short")
		}
		kind := sectionKind(dir[0])
		dir = dir[1:]
		var v [3]uint64 // column, parameter, byte length
		for j := range v {
			x, n := binary.Uvarint(dir)
			if n <= 0 {
				return nil, errors.New("segment: directory cut short")
			}
			v[j], dir = x, dir[n:]
		}
		if kind == 0 || kind > secDictBools {
			return nil, fmt.Errorf("segment: unknown section kind %d", kind)
		}
		off = alignUp(off, kind.align())
		if off > dirStart || v[2] > uint64(dirStart-off) {
			return nil, fmt.Errorf("segment: section %d runs %d bytes past the directory", i, v[2])
		}
		end := off + int(v[2])
		payload := data[off:end:end]
		off = end
		if kind == secStarTree {
			if s.starTreeData != nil {
				return nil, errors.New("segment: two star-tree sections")
			}
			s.starTreeData = payload
			continue
		}
		if v[0] >= uint64(len(cols)) {
			return nil, fmt.Errorf("segment: section for column %d of %d", v[0], len(cols))
		}
		c := &cols[v[0]]
		if err := c.load(kind, v[1], payload); err != nil {
			return nil, fmt.Errorf("segment: column %q: %w", c.spec.Name, err)
		}
	}
	if len(dir) != 0 || off != dirStart {
		return nil, errors.New("segment: bytes between the last section and the directory's end")
	}
	for i := range cols {
		c := &cols[i]
		m := s.ColumnMeta(c.spec.Name)
		if err := c.validate(m != nil && m.Sorted); err != nil {
			return nil, fmt.Errorf("segment: column %q: %w", c.spec.Name, err)
		}
	}
	return s, nil
}

// load attaches one section to the column. A column takes each kind once and
// only the kinds its field spec allows.
func (c *Column) load(kind sectionKind, param uint64, b []byte) error {
	n, t := c.numDocs, c.spec.Type
	dimension := c.spec.Kind != Metric
	var err error
	switch {
	case kind == secDictLongs && dimension && t.Integral() && c.dict == nil && len(b)%8 == 0:
		err = setDictionary(c, view.Of[int64](b))
	case kind == secDictDoubles && dimension && t.Numeric() && !t.Integral() && c.dict == nil && len(b)%8 == 0:
		err = setDictionary(c, view.Of[float64](b))
	case kind == secDictStrings && dimension && t == TypeString && c.dict == nil:
		var values []string
		if values, err = viewStrings(b, param); err == nil {
			err = setDictionary(c, values)
		}
	case kind == secDictBools && dimension && t == TypeBoolean && c.dict == nil:
		d := &boolDictionary{}
		c.dict = d
		d.values, err = viewBools(b)
	case kind == secForward && dimension && c.spec.SingleValue && c.fwd == nil && len(b)%8 == 0:
		c.fwd = &SVForwardIndex{}
		if c.fwd.packed, err = viewPackedInts(param, view.Of[uint64](b)); err == nil {
			err = c.fwd.packed.setLen(n)
		}
	case kind == secMVValues && dimension && !c.spec.SingleValue && c.mv == nil && len(b)%8 == 0:
		// The values precede their offsets in the file, and how many there
		// are is the last offset.
		c.mv = &MVForwardIndex{}
		c.mv.packed, err = viewPackedInts(param, view.Of[uint64](b))
	case kind == secMVOffsets && c.mv != nil && c.mv.offsets == nil && len(b) == (n+1)*4:
		c.mv.offsets = view.Of[uint32](b)
		err = c.mv.packed.setLen(int(c.mv.offsets[n]))
	case kind == secMetricLongs && !dimension && t.Integral() && c.metric == nil && len(b) == n*8:
		c.metric = newLongMetricColumn(view.Of[int64](b))
	case kind == secMetricDoubles && !dimension && !t.Integral() && c.metric == nil && len(b) == n*8:
		c.metric = newDoubleMetricColumn(view.Of[float64](b))
	case kind == secInverted && dimension && c.inverted == nil:
		c.inverted, err = bitmap.ViewPostings(b)
	default:
		return fmt.Errorf("unexpected section of kind %d and %d bytes", kind, len(b))
	}
	return err
}

func setDictionary[T cmp.Ordered](c *Column, values []T) error {
	d := &sortedDictionary[T]{values}
	c.dict = d
	if !d.ascending() {
		return errors.New("dictionary not ascending")
	}
	return nil
}

// validate cross-checks a loaded column's structures against each other and
// the segment document count. sorted is the metadata's claim that the ids
// never decrease, which the pass over them confirms.
func (c *Column) validate(sorted bool) error {
	if c.spec.Kind == Metric {
		if c.metric == nil {
			return errors.New("metric column without values")
		}
		return nil
	}
	if c.dict == nil || c.dict.Len() == 0 {
		return errors.New("dimension column without dictionary")
	}
	card := c.dict.Len()
	switch {
	case c.fwd != nil:
		monotone, err := c.fwd.packed.checkIDs(card)
		if err != nil {
			return err
		}
		if sorted && !monotone {
			return errors.New("metadata calls the column sorted, its ids decrease")
		}
		c.sorted = sorted
	case c.mv != nil && c.mv.offsets != nil:
		if err := c.mv.validate(card); err != nil {
			return err
		}
	default:
		return errors.New("dimension column without forward index")
	}
	if c.inverted != nil {
		if len(c.inverted) != card {
			return fmt.Errorf("inverted index has %d postings, dictionary has %d", len(c.inverted), card)
		}
		for id := range c.inverted {
			if max, ok := c.inverted[id].Maximum(); ok && int(max) >= c.numDocs {
				return fmt.Errorf("posting list %d references doc %d beyond %d", id, max, c.numDocs)
			}
		}
	}
	return nil
}

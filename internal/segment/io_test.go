package segment

import (
	"bytes"
	"testing"
	"unsafe"
)

// alignedCopy returns a copy of b that starts shift bytes past an 8-byte
// boundary.
func alignedCopy(b []byte, shift int) []byte {
	buf := make([]uint64, (len(b)+shift)/8+1)
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), len(buf)*8)
	return raw[shift : shift+copy(raw[shift:], b)]
}

// arrays lists the first element of every array a loaded segment reads
// queries from: packed words, MV offsets, metric values, dictionary values
// (for strings, the bytes of the last value) and the star-tree's bytes.
// Posting lists are bitmap.ViewPostings' to check.
func (s *Segment) arrays() map[string]unsafe.Pointer {
	out := map[string]unsafe.Pointer{}
	for name, c := range s.columns {
		switch {
		case c.fwd != nil:
			out[name+" forward"] = unsafe.Pointer(&c.fwd.packed.words[0])
		case c.mv != nil:
			out[name+" mv values"] = unsafe.Pointer(&c.mv.packed.words[0])
			out[name+" mv offsets"] = unsafe.Pointer(&c.mv.offsets[0])
		}
		switch m := c.metric.(type) {
		case *longMetricColumn:
			out[name+" metric"] = unsafe.Pointer(&m.values[0])
		case *doubleMetricColumn:
			out[name+" metric"] = unsafe.Pointer(&m.values[0])
		}
		switch d := c.dict.(type) {
		case *sortedDictionary[int64]:
			out[name+" dictionary"] = unsafe.Pointer(&d.values[0])
		case *sortedDictionary[float64]:
			out[name+" dictionary"] = unsafe.Pointer(&d.values[0])
		case *sortedDictionary[string]:
			out[name+" dictionary"] = unsafe.Pointer(unsafe.StringData(d.values[len(d.values)-1]))
		}
	}
	if s.starTreeData != nil {
		out["star-tree"] = unsafe.Pointer(&s.starTreeData[0])
	}
	return out
}

// TestLoadedSegmentIsViewsOfItsBlob: every array of a segment loaded from an
// aligned blob lies inside the blob, so two loads of the same bytes — two
// replicas fetching one key from objstore.Mem — share them to the pointer;
// a byte-shifted blob loads into decoded copies with the same contents.
func TestLoadedSegmentIsViewsOfItsBlob(t *testing.T) {
	schema := goldenSchema(t)
	b, err := NewBuilder("golden", "g0", schema, IndexConfig{SortColumn: "i", InvertedColumns: []string{"s", "ms"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range goldenRows() {
		if err := b.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	built, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	built.SetStarTreeData([]byte("opaque to the segment"))
	marshalled, err := built.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	inside := func(p unsafe.Pointer, blob []byte) bool {
		lo := uintptr(unsafe.Pointer(&blob[0]))
		return uintptr(p) >= lo && uintptr(p) < lo+uintptr(len(blob))
	}
	blob := alignedCopy(marshalled, 0)
	first, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	other := second.arrays()
	if len(other) < 25 {
		t.Fatalf("only %d arrays found: the fixture no longer covers the format", len(other))
	}
	for name, p := range first.arrays() {
		if !inside(p, blob) {
			t.Errorf("%s: not a view of the blob", name)
		}
		if p != other[name] {
			t.Errorf("%s: two loads of one blob hold two copies", name)
		}
	}
	// The composite sections (postings, star-tree) start 8-aligned, which
	// is what lets their own loaders view them.
	if at := uintptr(unsafe.Pointer(&first.starTreeData[0])) - uintptr(unsafe.Pointer(&blob[0])); at%8 != 0 {
		t.Errorf("the star-tree section starts at byte %d of the blob", at)
	}

	shifted, err := Unmarshal(alignedCopy(marshalled, 1))
	if err != nil {
		t.Fatalf("a misaligned blob does not load: %v", err)
	}
	assertSegmentsEqual(t, built, shifted)
	if again, err := shifted.Marshal(); err != nil || !bytes.Equal(again, marshalled) {
		t.Fatalf("the segment of a misaligned blob marshals to different bytes (%v)", err)
	}
	if !shifted.SortedOn("i") || !shifted.Column("ms").HasInverted() {
		t.Fatal("the segment of a misaligned blob lost its indexes")
	}
}

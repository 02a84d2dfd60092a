package startree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"pinot/internal/segment"
)

// bigTree is a tree over n rows with enough distinct float sums that the
// order they are added in shows in the total.
func bigTree(t testing.TB, n int) *Tree {
	t.Helper()
	sch, err := segment.NewSchema("m", []segment.FieldSpec{
		{Name: "a", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "b", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "c", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "v", Type: segment.TypeDouble, Kind: segment.Metric, SingleValue: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := segment.NewBuilder("m", "m_0", sch, segment.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(31))
	for i := 0; i < n; i++ {
		row := segment.Row{int64(r.Intn(300)), fmt.Sprint("b", r.Intn(40)), int64(r.Intn(25)), r.NormFloat64() * math.Pow(10, float64(r.Intn(12)))}
		if err := b.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(seg, Config{DimensionSplitOrder: []string{"a", "b", "c"}, Metrics: []string{"v"}, MaxLeafRecords: 50})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestScanOrderIsDeterministic: the children of a node are a sorted table,
// not a map, so a scan visits the same records in the same order every time
// and a float sum folded in visit order is the same to the bit.
func TestScanOrderIsDeterministic(t *testing.T) {
	tree := bigTree(t, 100000)
	even := func(id int32) bool { return id%2 == 0 }
	shapes := []struct {
		matchers map[int]IDMatcher
		group    []int
	}{
		{nil, nil},
		{map[int]IDMatcher{0: even}, nil},
		{map[int]IDMatcher{1: even}, []int{0}},
		{map[int]IDMatcher{0: even, 2: even}, []int{1}},
		{nil, []int{0, 1, 2}},
	}
	for si, s := range shapes {
		var first []int
		var firstSum float64
		for run := 0; run < 20; run++ {
			var recs []int
			var sum float64
			tree.Scan(s.matchers, s.group, func(rec int) {
				recs = append(recs, rec)
				sum += tree.Sum(rec, 0)
			})
			if run == 0 {
				if len(recs) < 2 {
					t.Fatalf("shape %d visits %d records: too few to have an order", si, len(recs))
				}
				first, firstSum = recs, sum
				continue
			}
			if math.Float64bits(sum) != math.Float64bits(firstSum) {
				t.Fatalf("shape %d run %d: sum %v, first run %v", si, run, sum, firstSum)
			}
			if len(recs) != len(first) {
				t.Fatalf("shape %d run %d: %d records, first run %d", si, run, len(recs), len(first))
			}
			for i := range recs {
				if recs[i] != first[i] {
					t.Fatalf("shape %d run %d: visit %d is record %d, first run's was %d", si, run, i, recs[i], first[i])
				}
			}
		}
	}
}

// aligned returns a copy of b that starts shift bytes past an 8-byte
// boundary.
func aligned(b []byte, shift int) []byte {
	buf := make([]uint64, (len(b)+shift)/8+1)
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), len(buf)*8)
	return raw[shift : shift+copy(raw[shift:], b)]
}

// TestUnmarshalServesTheBytesInPlace: a tree read from an aligned buffer
// holds views of it, one read from a byte-shifted buffer a decoded copy, and
// both answer as the built tree does and marshal back to the same bytes.
func TestUnmarshalServesTheBytesInPlace(t *testing.T) {
	tree := bigTree(t, 5000)
	blob, err := tree.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	visits := func(tr *Tree) (recs []int) {
		tr.Scan(map[int]IDMatcher{1: func(id int32) bool { return id < 7 }}, []int{0}, func(rec int) { recs = append(recs, rec) })
		return recs
	}
	want := visits(tree)
	for shift := 0; shift < 2; shift++ {
		buf := aligned(blob, shift)
		got, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("shift %d: %v", shift, err)
		}
		if fmt.Sprint(visits(got)) != fmt.Sprint(want) {
			t.Errorf("shift %d: the loaded tree visits other records than the built one", shift)
		}
		for rec := 0; rec < tree.NumRecords(); rec++ {
			if got.Sum(rec, 0) != tree.Sum(rec, 0) || got.Count(rec) != tree.Count(rec) || got.DimValue(rec, 2) != tree.DimValue(rec, 2) {
				t.Fatalf("shift %d: record %d differs", shift, rec)
			}
		}
		if again, err := got.Marshal(); err != nil || !bytes.Equal(again, blob) {
			t.Errorf("shift %d: the loaded tree marshals to different bytes (%v)", shift, err)
		}
		lo := uintptr(unsafe.Pointer(&buf[0]))
		inPlace := true
		for _, p := range []unsafe.Pointer{unsafe.Pointer(&got.sums[0][0]), unsafe.Pointer(&got.counts[0]), unsafe.Pointer(&got.dims[2][0]), unsafe.Pointer(&got.nodes[0])} {
			inPlace = inPlace && uintptr(p) >= lo && uintptr(p) < lo+uintptr(len(buf))
		}
		if inPlace != (shift == 0) {
			t.Errorf("shift %d: arrays alias the buffer: %v", shift, inPlace)
		}
	}
}

func allocatedBy(fn func()) uint64 {
	best := ^uint64(0)
	var before, after runtime.MemStats
	for try := 0; try < 3; try++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// header is a serialized tree's first 32 bytes.
func header(nrec, nnodes uint32, nd, nm uint16) []byte {
	h := make([]byte, treeHeader)
	le := binary.LittleEndian
	le.PutUint32(h[0:], treeMagic)
	le.PutUint32(h[16:], nrec)
	le.PutUint32(h[20:], nnodes)
	le.PutUint16(h[24:], nd)
	le.PutUint16(h[26:], nm)
	return h
}

// rawTree serializes a tree of no records, nd dimensions named "d" and the
// given node table.
func rawTree(nd int, nodes ...int32) []byte {
	b := header(0, uint32(len(nodes)/nodeFields), uint16(nd), 0)
	for _, v := range nodes {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	for i := 0; i < nd; i++ {
		b = append(b, 1, 0, 'd')
	}
	return b
}

// TestUnmarshalRefusesHostileTrees holds the loader to its contract on the
// inputs that used to hurt: record and dimension counts no bytes back (the
// old loader allocated records × dimensions before reading), and node tables
// that are not trees — a node that is its own child, a cycle, a chain deeper
// than the split order (the old loader recursed once per level until the
// stack ran out, which no recover catches). Each is an error, for next to no
// memory.
func TestUnmarshalRefusesHostileTrees(t *testing.T) {
	chain := make([]int32, 0, 100000*nodeFields)
	for i := int32(0); i < 100000; i++ {
		children := int32(1)
		if i == 99999 {
			children = 0
		}
		chain = append(chain, 0, 0, 0, i+1, children)
	}
	for name, data := range map[string][]byte{
		"records × dimensions":         header(math.MaxUint32, 1, math.MaxUint16, math.MaxUint16),
		"nodes":                        header(0, math.MaxUint32, 1, 0),
		"no nodes":                     header(0, 0, 0, 0),
		"node is its own child":        rawTree(1, 0, 0, 0, 0, 1),
		"children before their parent": rawTree(2, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1),
		"child nobody owns":            rawTree(1, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0),
		"children past the table":      rawTree(1, 0, 0, 0, 1, 5),
		"records past the table":       rawTree(1, 0, 0, 9, 1, 0),
		"children out of order":        rawTree(1, 0, 0, 0, 1, 2, 5, 0, 0, 3, 0, 4, 0, 0, 3, 0),
		"chain deeper than the dims":   rawTree(3, chain...),
	} {
		var err error
		if got := allocatedBy(func() { _, err = Unmarshal(data) }); got > 64<<10 {
			t.Errorf("%s: refusing %d bytes allocated %d", name, len(data), got)
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The smallest tree there is still loads: the cases above fail for
	// their defect, not for the framing around it.
	if _, err := Unmarshal(rawTree(1, 0, 0, 0, 1, 0)); err != nil {
		t.Fatalf("a single leaf: %v", err)
	}
}

// TestLoadHoldsTheTreeToItsSegment: a tree whose ids do not fit the
// segment's dictionaries, or whose columns the segment lacks, is refused
// before a query can decode a group key through it.
func TestLoadHoldsTheTreeToItsSegment(t *testing.T) {
	seg := buildSegment(t, sampleRows())
	if tree, err := Load(seg); tree != nil || err != nil {
		t.Fatalf("segment without a tree: %v, %v", tree, err)
	}
	data, err := buildTree(t, seg, 1).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	seg.SetStarTreeData(data)
	if tree, err := Load(seg); err != nil || tree.NumRecords() == 0 {
		t.Fatalf("the segment's own tree: %v", err)
	}
	// The same tree beside a segment with fewer browsers.
	small := buildSegment(t, sampleRows()[:3])
	small.SetStarTreeData(data)
	if _, err := Load(small); err == nil {
		t.Fatal("a tree with ids beyond the segment's dictionary loaded")
	}
	other, err := Build(seg, Config{DimensionSplitOrder: []string{"Country"}, Metrics: []string{"Impressions"}})
	if err != nil {
		t.Fatal(err)
	}
	other.splitOrder[0] = "Continent"
	if data, err = other.Marshal(); err != nil {
		t.Fatal(err)
	}
	seg.SetStarTreeData(data)
	if _, err := Load(seg); err == nil {
		t.Fatal("a tree over a column the segment lacks loaded")
	}
}

package segment_test

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"pinot/internal/segment"
	"pinot/internal/startree"
)

// seedBlobs are the marshalled segments of the first rows golden rows, one
// per index configuration, and one more that carries a star-tree: every
// section kind of the format.
func seedBlobs(t testing.TB, rows int) [][]byte {
	t.Helper()
	var blobs [][]byte
	for i, c := range segment.GoldenConfigs {
		b, err := segment.NewBuilder("golden", "g0", segment.GoldenSchema(t), c.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range segment.GoldenRows()[:rows] {
			if err := b.Add(row); err != nil {
				t.Fatal(err)
			}
		}
		seg, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			tree, err := startree.Build(seg, startree.Config{DimensionSplitOrder: []string{"b", "i", "s"}, Metrics: []string{"xl", "xd"}, MaxLeafRecords: 20})
			if err != nil {
				t.Fatal(err)
			}
			data, err := tree.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			seg.SetStarTreeData(data)
			blob, err := seg.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, blob)
			seg.SetStarTreeData(nil)
		}
		blob, err := seg.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	return blobs
}

// allocatedBy meters the bytes fn allocates: the least of three runs, because
// TotalAlloc is the whole process's.
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

// checkBlob is the loaders' contract over arbitrary bytes — the controller
// relies on it to reject bad uploads (paper 3.3.5: "unpacks it to ensure its
// integrity"), a server to serve what it accepted in place. An error, never
// a panic. Allocation linear in the input whatever lengths it declares: a
// loaded segment is views of the input plus per-column, per-dictionary-string
// and per-posting headers, which cost a bounded multiple of the bytes that
// declare them (the JSON metadata is the dearest, a Column and a map entry
// for a field of a dozen bytes), and a misaligned input is decoded into as
// many bytes again. And whatever is accepted can be read to the end: every
// row, every posting list, a scan of the star-tree, and a Marshal that loads
// again.
func checkBlob(t *testing.T, data []byte) {
	t.Helper()
	var seg *segment.Segment
	var tree *startree.Tree
	var err error
	got := allocatedBy(func() {
		if seg, err = segment.Unmarshal(data); err == nil {
			tree, err = startree.Load(seg)
		}
	})
	if limit := uint64(64*len(data) + 16<<10); got > limit {
		t.Fatalf("loading %d bytes allocated %d, limit %d", len(data), got, limit)
	}
	if err != nil {
		return
	}
	for doc := 0; doc < seg.NumDocs(); doc++ {
		segment.ReadRow(seg, doc)
	}
	for _, f := range seg.Schema().Fields {
		c := seg.Column(f.Name)
		c.MinValue()
		c.MaxValue()
		if c.IsSorted() {
			if s, e := c.DocIDRange(0, c.Cardinality()); s != 0 || e != seg.NumDocs() {
				t.Fatalf("sorted column %s: its ids cover docs [%d, %d) of %d", f.Name, s, e, seg.NumDocs())
			}
		}
		if c.HasInverted() {
			total := 0
			for id := 0; id < c.Cardinality(); id++ {
				total += len(c.Inverted(id).ToArray())
			}
			if f.SingleValue && total != seg.NumDocs() {
				t.Fatalf("column %s: postings hold %d docs, segment %d", f.Name, total, seg.NumDocs())
			}
		}
	}
	if tree != nil {
		group := make([]int, len(tree.SplitOrder()))
		for d := range group {
			group[d] = d
		}
		for _, g := range [][]int{nil, group} {
			tree.Scan(nil, g, func(rec int) {
				tree.Count(rec)
				for d := range tree.SplitOrder() {
					tree.DimValue(rec, d)
				}
				for m := range tree.Metrics() {
					tree.Sum(rec, m)
				}
			})
		}
	}
	again, err := seg.Marshal()
	if err != nil {
		t.Fatalf("an accepted segment does not marshal: %v", err)
	}
	if _, err := segment.Unmarshal(again); err != nil {
		t.Fatalf("an accepted segment's bytes do not load: %v", err)
	}
}

// TestUnmarshalSurvivesCorruptBlobs feeds truncated and bit-flipped blobs
// through the contract. Most flips land in value payloads and load; the
// header, the directory and the metadata are flipped on purpose as well.
func TestUnmarshalSurvivesCorruptBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, blob := range seedBlobs(t, 200) {
		step := len(blob)/100 + 1
		for n := 0; n < len(blob); n += step {
			if _, err := segment.Unmarshal(blob[:n]); err == nil {
				t.Fatalf("a truncation to %d of %d bytes loaded", n, len(blob))
			}
		}
		tail := int(binary.LittleEndian.Uint32(blob[8:]) + binary.LittleEndian.Uint32(blob[12:]))
		for trial := 0; trial < 150; trial++ {
			corrupt := append([]byte(nil), blob...)
			at := r.Intn(len(corrupt))
			switch trial % 3 {
			case 1:
				at = r.Intn(16)
			case 2:
				at = len(corrupt) - 1 - r.Intn(tail)
			}
			corrupt[at] ^= byte(1 + r.Intn(255))
			checkBlob(t, corrupt)
		}
		checkBlob(t, blob)
	}
}

// TestUnmarshalRefusesAllocationBombs: a few bytes that declare gigabytes —
// the old loader allocated a block's declared length (up to 2 GiB) before
// reading it — are refused for next to no memory.
func TestUnmarshalRefusesAllocationBombs(t *testing.T) {
	le := binary.LittleEndian
	header := func(nsect, dirLen, metaLen uint32) []byte {
		h := le.AppendUint32(nil, 0x50534632)
		return le.AppendUint32(le.AppendUint32(le.AppendUint32(h, nsect), dirLen), metaLen)
	}
	seed := seedBlobs(t, 100)[0]
	dirLen, metaLen := le.Uint32(seed[8:]), le.Uint32(seed[12:])
	meta := seed[len(seed)-int(metaLen):]
	// The seed's metadata behind a directory of one section that claims
	// 2^40 bytes, and behind one whose string dictionary claims 2^32 values.
	withDir := func(dir ...byte) []byte {
		b := append(header(1, uint32(len(dir)), metaLen), dir...)
		return append(b, meta...)
	}
	for name, data := range map[string][]byte{
		"old format: a block of 2 GiB":  {0x31, 0x46, 0x53, 0x50, 0, 0, 7, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"header: 4 GiB of directory":    header(1<<32-1, 1<<32-1, 0),
		"header: 4 GiB of metadata":     header(0, 0, 1<<32-1),
		"header: 4 G sections, no room": append(header(1<<32-1, dirLen, metaLen), seed[len(seed)-int(dirLen+metaLen):]...),
		"section of 2^40 bytes":         withDir(3, 0, 7, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
		"dictionary of 2^32 strings":    withDir(10, 0, 0x80, 0x80, 0x80, 0x80, 0x10, 0),
	} {
		var err error
		if got := allocatedBy(func() { _, err = segment.Unmarshal(data) }); got > 64<<10 {
			t.Errorf("%s: refusing %d bytes allocated %d", name, len(data), got)
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzSegmentUnmarshal mutates small segments: the engine's throughput falls
// with the size of its inputs, and two dozen rows already give every section kind.
func FuzzSegmentUnmarshal(f *testing.F) {
	for _, blob := range seedBlobs(f, 24) {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkBlob(t, data) })
}

package startree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"pinot/internal/segment"
	"pinot/internal/view"
)

// The serialized tree is the tree's arrays in descending order of alignment
// behind a header of 32 bytes, so that a reader holding it at an 8-byte
// aligned address — a segment stores it at one — serves it in place:
//
//	u32 magic, u32 maxLeaf, u64 rawDocs, u32 records, u32 nodes,
//	u16 dims, u16 metrics, u32 0
//	f64[records] × metrics   sums
//	i64[records]             counts
//	i32[records] × dims      dimension values
//	i32[nodeFields] × nodes  the node table
//	(u16 length, bytes) × (dims + metrics)   split order, then metric names
const (
	treeMagic   = uint32(0x53_54_52_32) // "STR2"
	treeHeader  = 32
	nodeBytes   = nodeFields * 4
	maxNameSize = math.MaxUint16
)

// Marshal serializes the tree for storage alongside a segment.
func (t *Tree) Marshal() ([]byte, error) {
	nrec, nnodes := len(t.counts), len(t.nodes)/nodeFields
	names := append(append([]string(nil), t.splitOrder...), t.metrics...)
	size := treeHeader + (len(t.sums)+1)*nrec*8 + len(t.dims)*nrec*4 + nnodes*nodeBytes
	for _, s := range names {
		if len(s) > maxNameSize {
			return nil, fmt.Errorf("startree: column name of %d bytes", len(s))
		}
		size += 2 + len(s)
	}
	le := binary.LittleEndian
	out := make([]byte, treeHeader, size)
	le.PutUint32(out[0:], treeMagic)
	le.PutUint32(out[4:], uint32(t.maxLeaf))
	le.PutUint64(out[8:], uint64(t.numRawDocs))
	le.PutUint32(out[16:], uint32(nrec))
	le.PutUint32(out[20:], uint32(nnodes))
	le.PutUint16(out[24:], uint16(len(t.dims)))
	le.PutUint16(out[26:], uint16(len(t.sums)))
	for _, col := range t.sums {
		out = append(out, view.Bytes(col)...)
	}
	out = append(out, view.Bytes(t.counts)...)
	for _, col := range t.dims {
		out = append(out, view.Bytes(col)...)
	}
	out = append(out, view.Bytes(t.nodes)...)
	for _, s := range names {
		out = le.AppendUint16(out, uint16(len(s)))
		out = append(out, s...)
	}
	return out, nil
}

// Unmarshal checks a Marshal blob and returns the tree it holds. The tree
// reads data in place — sums, counts, dimension values and the node table are
// views of it (package view; a misaligned data is decoded instead) — so data
// must stay unchanged while the tree is in use. Lengths are checked against
// the bytes present before anything is allocated, and the node table is
// checked to be a tree in level order whose record ranges lie inside the
// record table and whose depth the split order bounds, so Scan of an accepted
// tree stays inside its arrays and its recursion inside the dimension count.
func Unmarshal(data []byte) (*Tree, error) {
	le := binary.LittleEndian
	if len(data) < treeHeader || le.Uint32(data) != treeMagic {
		return nil, errors.New("startree: bad magic")
	}
	nrec, nnodes := uint64(le.Uint32(data[16:])), uint64(le.Uint32(data[20:]))
	nd, nm := uint64(le.Uint16(data[24:])), uint64(le.Uint16(data[26:]))
	arrays := (nm+1)*nrec*8 + nd*nrec*4 + nnodes*nodeBytes
	if nrec > math.MaxInt32 || nnodes == 0 || treeHeader+arrays+(nd+nm)*2 > uint64(len(data)) {
		return nil, fmt.Errorf("startree: %d bytes cannot hold %d records of %d dimensions and %d metrics under %d nodes",
			len(data), nrec, nd, nm, nnodes)
	}
	t := &Tree{
		maxLeaf:    int(le.Uint32(data[4:])),
		numRawDocs: int(le.Uint64(data[8:])),
		dims:       make([][]int32, nd),
		sums:       make([][]float64, nm),
	}
	rest := data[treeHeader:]
	take := func(n uint64) []byte {
		b := rest[:n:n]
		rest = rest[n:]
		return b
	}
	for m := range t.sums {
		t.sums[m] = view.Of[float64](take(nrec * 8))
	}
	t.counts = view.Of[int64](take(nrec * 8))
	for d := range t.dims {
		t.dims[d] = view.Of[int32](take(nrec * 4))
	}
	t.nodes = view.Of[int32](take(nnodes * nodeBytes))
	names := make([]string, nd+nm)
	for i := range names {
		if len(rest) < 2 || len(rest)-2 < int(le.Uint16(rest)) {
			return nil, errors.New("startree: column names cut short")
		}
		names[i] = string(take(2 + uint64(le.Uint16(rest)))[2:])
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("startree: %d trailing bytes", len(rest))
	}
	t.splitOrder, t.metrics = names[:nd:nd], names[nd:]
	return t, t.checkNodes()
}

// Load returns the star-tree a segment carries, nil when it has none: the
// tree of Unmarshal(seg.StarTreeData()), held to the segment it answers for.
// Every split dimension must be a single-value dictionary column of seg with
// every record's id inside its dictionary (a query decodes group keys through
// it), every metric a metric column.
func Load(seg *segment.Segment) (*Tree, error) {
	data := seg.StarTreeData()
	if data == nil {
		return nil, nil
	}
	t, err := Unmarshal(data)
	if err != nil {
		return nil, err
	}
	for d, name := range t.splitOrder {
		c := seg.Column(name)
		if c == nil || !c.HasDictionary() || !c.Spec().SingleValue {
			return nil, fmt.Errorf("startree: segment %s has no single-value dictionary column %q", seg.Name(), name)
		}
		card := int32(c.Cardinality())
		for rec, id := range t.dims[d] {
			if id < StarID || id >= card {
				return nil, fmt.Errorf("startree: record %d holds id %d of %q, whose dictionary has %d", rec, id, name, card)
			}
		}
	}
	for _, name := range t.metrics {
		if c := seg.Column(name); c == nil || c.Spec().Kind != segment.Metric {
			return nil, fmt.Errorf("startree: segment %s has no metric %q", seg.Name(), name)
		}
	}
	return t, nil
}

// checkNodes verifies the node table is what flatten writes: level order, so
// each node's children start where the previous node's ended, after the node
// itself, and the table ends with the last node's. That makes every node but
// the root the child of exactly one earlier node.
func (t *Tree) checkNodes() error {
	nrec, nnodes := int32(len(t.counts)), len(t.nodes)/nodeFields
	next := 1                  // where the children of the node being checked must start
	level, levelEnd := 0, next // nodes before levelEnd are at depth level or less
	for i := 0; i < nnodes; i++ {
		if i == next {
			return fmt.Errorf("startree: node %d is no node's child", i)
		}
		if i == levelEnd {
			level, levelEnd = level+1, next
		}
		n := t.nodes[i*nodeFields:][:nodeFields]
		if n[nodeStart] < 0 || n[nodeStart] > n[nodeEnd] || n[nodeEnd] > nrec {
			return fmt.Errorf("startree: node %d covers records [%d, %d) of %d", i, n[nodeStart], n[nodeEnd], nrec)
		}
		count := int(n[nodeNumChildren])
		if int(n[nodeFirstChild]) != next || count < 0 || count > nnodes-next {
			return fmt.Errorf("startree: node %d has %d children at %d, expected at %d of %d", i, count, n[nodeFirstChild], next, nnodes)
		}
		if count > 0 && level >= len(t.dims) {
			return fmt.Errorf("startree: node %d splits below the last dimension", i)
		}
		for c := next; c < next+count; c++ {
			id := t.nodes[c*nodeFields+nodeDictID]
			if id < StarID || (c > next && id <= t.nodes[(c-1)*nodeFields+nodeDictID]) {
				return fmt.Errorf("startree: children of node %d not in ascending dict-id order", i)
			}
		}
		next += count
	}
	return nil
}

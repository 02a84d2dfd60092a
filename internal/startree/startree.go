// Package startree implements the star-tree index of paper section 4.3
// (after Xin et al.'s star-cubing): a pruned hierarchy of pre-aggregated
// records. Each tree level splits on one dimension of the configured split
// order; every split also materializes a star node that aggregates across
// that dimension. Queries whose filter and group-by columns are contained in
// the split order navigate the tree and touch far fewer records than a scan
// of the raw data.
package startree

import (
	"fmt"
	"sort"

	"pinot/internal/segment"
)

// StarID is the dictionary id used for the collapsed ("star") dimension
// value in pre-aggregated records.
const StarID int32 = -1

// DefaultMaxLeafRecords bounds leaf size before a further split happens.
const DefaultMaxLeafRecords = 10000

// Config selects the shape of a star-tree.
type Config struct {
	// DimensionSplitOrder lists the dimensions the tree splits on, most
	// selective / most queried first. All must be single-value
	// dictionary-encoded columns.
	DimensionSplitOrder []string
	// Metrics are the metric columns pre-aggregated as SUM (COUNT is
	// always maintained). AVG derives from SUM/COUNT at query time.
	Metrics []string
	// MaxLeafRecords stops splitting when a node covers at most this
	// many records. Zero means DefaultMaxLeafRecords.
	MaxLeafRecords int
}

// A node covers the pre-aggregated record range [start, end) and is
// nodeFields consecutive values of Tree.nodes. The table is in level order,
// root first, so a node's children are consecutive: the star child (dictID
// StarID) first when there is one, then one child per value of the split
// dimension in ascending dict-id order. A node at depth d splits on dimension
// d of the split order; a leaf has no children.
const (
	nodeDictID      = iota // value of the parent's split dimension
	nodeStart              // first record
	nodeEnd                // one past the last record
	nodeFirstChild         // index of the first child
	nodeNumChildren        // 0 for a leaf
	nodeFields
)

// Tree is a built star-tree: the pre-aggregated record table plus the node
// table over it. A tree of Unmarshal holds views of the bytes it was given.
type Tree struct {
	splitOrder []string
	metrics    []string
	maxLeaf    int
	nodes      []int32
	// Record storage, column-major.
	dims   [][]int32   // [dim][record]
	sums   [][]float64 // [metric][record]
	counts []int64
	// numRawDocs is the segment document count the tree was built from,
	// the denominator of the Figure 13 ratio.
	numRawDocs int
}

// SplitOrder returns the dimension split order.
func (t *Tree) SplitOrder() []string { return t.splitOrder }

// Metrics returns the pre-aggregated metric columns.
func (t *Tree) Metrics() []string { return t.metrics }

// NumRecords returns the number of pre-aggregated records (including star
// records).
func (t *Tree) NumRecords() int { return len(t.counts) }

// NumRawDocs returns the raw document count the tree was built over.
func (t *Tree) NumRawDocs() int { return t.numRawDocs }

// DimValue returns the dict id of a split dimension in a record (StarID for
// collapsed dimensions).
func (t *Tree) DimValue(rec, dim int) int32 { return t.dims[dim][rec] }

// Sum returns the pre-aggregated SUM of a metric in a record.
func (t *Tree) Sum(rec, metric int) float64 { return t.sums[metric][rec] }

// Count returns the pre-aggregated COUNT of a record.
func (t *Tree) Count(rec int) int64 { return t.counts[rec] }

// DimIndex returns a column's index in the split order, or -1.
func (t *Tree) DimIndex(name string) int {
	for i, d := range t.splitOrder {
		if d == name {
			return i
		}
	}
	return -1
}

// MetricIndex returns a metric column's index in the tree, or -1.
func (t *Tree) MetricIndex(name string) int {
	for i, m := range t.metrics {
		if m == name {
			return i
		}
	}
	return -1
}

// builder holds mutable build state.
type builder struct {
	tree *Tree
	nd   int // number of split dims
	nm   int // number of metrics
}

// Build constructs a star-tree over a segment.
func Build(seg segment.Reader, cfg Config) (*Tree, error) {
	if len(cfg.DimensionSplitOrder) == 0 {
		return nil, fmt.Errorf("startree: empty dimension split order")
	}
	maxLeaf := cfg.MaxLeafRecords
	if maxLeaf <= 0 {
		maxLeaf = DefaultMaxLeafRecords
	}
	nd, nm := len(cfg.DimensionSplitOrder), len(cfg.Metrics)
	dimCols := make([]segment.ColumnReader, nd)
	for i, name := range cfg.DimensionSplitOrder {
		c := seg.Column(name)
		if c == nil {
			return nil, fmt.Errorf("startree: segment has no column %q", name)
		}
		if !c.HasDictionary() || !c.Spec().SingleValue {
			return nil, fmt.Errorf("startree: column %q must be a single-value dictionary column", name)
		}
		dimCols[i] = c
	}
	metricCols := make([]segment.ColumnReader, nm)
	for i, name := range cfg.Metrics {
		c := seg.Column(name)
		if c == nil {
			return nil, fmt.Errorf("startree: segment has no metric %q", name)
		}
		if c.Spec().Kind != segment.Metric {
			return nil, fmt.Errorf("startree: column %q is not a metric", name)
		}
		metricCols[i] = c
	}

	n := seg.NumDocs()
	t := &Tree{
		splitOrder: append([]string(nil), cfg.DimensionSplitOrder...),
		metrics:    append([]string(nil), cfg.Metrics...),
		maxLeaf:    maxLeaf,
		numRawDocs: n,
		dims:       make([][]int32, nd),
		sums:       make([][]float64, nm),
	}
	b := &builder{tree: t, nd: nd, nm: nm}

	// Base records: raw docs aggregated by split-dimension tuple.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	docDims := make([][]int32, nd)
	for d := 0; d < nd; d++ {
		col := dimCols[d]
		ids := make([]int32, n)
		for doc := 0; doc < n; doc++ {
			ids[doc] = int32(col.DictID(doc))
		}
		docDims[d] = ids
	}
	sort.Slice(order, func(a, c int) bool {
		i, j := order[a], order[c]
		for d := 0; d < nd; d++ {
			if docDims[d][i] != docDims[d][j] {
				return docDims[d][i] < docDims[d][j]
			}
		}
		return false
	})
	for d := 0; d < nd; d++ {
		t.dims[d] = make([]int32, 0, n/2)
	}
	for m := 0; m < nm; m++ {
		t.sums[m] = make([]float64, 0, n/2)
	}
	sameKey := func(i, j int) bool {
		for d := 0; d < nd; d++ {
			if docDims[d][i] != docDims[d][j] {
				return false
			}
		}
		return true
	}
	for i := 0; i < n; {
		j := i
		for j < n && sameKey(order[i], order[j]) {
			j++
		}
		for d := 0; d < nd; d++ {
			t.dims[d] = append(t.dims[d], docDims[d][order[i]])
		}
		for m := 0; m < nm; m++ {
			var sum float64
			for k := i; k < j; k++ {
				sum += metricCols[m].Double(order[k])
			}
			t.sums[m] = append(t.sums[m], sum)
		}
		t.counts = append(t.counts, int64(j-i))
		i = j
	}

	t.nodes = flatten(b.split(0, int32(len(t.counts)), 0))
	return t, nil
}

// buildNode is a node while the tree is being built, depth first; flatten
// lays the finished tree out in level order.
type buildNode struct {
	dictID, start, end int32
	children           []*buildNode // star child first, then ascending dictID
}

func flatten(root *buildNode) []int32 {
	queue := []*buildNode{root}
	var nodes []int32
	for i := 0; i < len(queue); i++ {
		n := queue[i]
		nodes = append(nodes, n.dictID, n.start, n.end, int32(len(queue)), int32(len(n.children)))
		queue = append(queue, n.children...)
	}
	return nodes
}

// sortRange re-sorts the record range [start, end) lexicographically by
// dimensions [level..nd).
func (b *builder) sortRange(start, end int32, level int) {
	t := b.tree
	idx := make([]int32, end-start)
	for i := range idx {
		idx[i] = start + int32(i)
	}
	sort.SliceStable(idx, func(a, c int) bool {
		i, j := idx[a], idx[c]
		for d := level; d < b.nd; d++ {
			if t.dims[d][i] != t.dims[d][j] {
				return t.dims[d][i] < t.dims[d][j]
			}
		}
		return false
	})
	// Apply the permutation to all record columns.
	for d := 0; d < b.nd; d++ {
		tmp := make([]int32, len(idx))
		for i, src := range idx {
			tmp[i] = t.dims[d][src]
		}
		copy(t.dims[d][start:end], tmp)
	}
	for m := 0; m < b.nm; m++ {
		tmp := make([]float64, len(idx))
		for i, src := range idx {
			tmp[i] = t.sums[m][src]
		}
		copy(t.sums[m][start:end], tmp)
	}
	tmp := make([]int64, len(idx))
	for i, src := range idx {
		tmp[i] = t.counts[src]
	}
	copy(t.counts[start:end], tmp)
}

// split builds the subtree covering record range [start, end), dividing on
// dimension `level` of the split order.
func (b *builder) split(start, end int32, level int) *buildNode {
	t := b.tree
	nd := &buildNode{start: start, end: end}
	if level >= b.nd || end-start <= int32(t.maxLeaf) {
		return nd
	}
	b.sortRange(start, end, level)
	nd.children = []*buildNode{nil} // the star child's place
	for i := start; i < end; {
		j := i
		id := t.dims[level][i]
		for j < end && t.dims[level][j] == id {
			j++
		}
		child := b.split(i, j, level+1)
		child.dictID = id
		nd.children = append(nd.children, child)
		i = j
	}
	// Star child: aggregate [start, end) collapsing this dimension.
	starStart := int32(len(t.counts))
	b.appendStarRecords(start, end, level)
	star := b.split(starStart, int32(len(t.counts)), level+1)
	star.dictID = StarID
	nd.children[0] = star
	return nd
}

// appendStarRecords appends the aggregation of [start, end) with dimension
// `level` collapsed to StarID, grouped by the remaining dimensions.
func (b *builder) appendStarRecords(start, end int32, level int) {
	t := b.tree
	idx := make([]int32, end-start)
	for i := range idx {
		idx[i] = start + int32(i)
	}
	sort.SliceStable(idx, func(a, c int) bool {
		i, j := idx[a], idx[c]
		for d := level + 1; d < b.nd; d++ {
			if t.dims[d][i] != t.dims[d][j] {
				return t.dims[d][i] < t.dims[d][j]
			}
		}
		return false
	})
	same := func(i, j int32) bool {
		for d := level + 1; d < b.nd; d++ {
			if t.dims[d][i] != t.dims[d][j] {
				return false
			}
		}
		return true
	}
	for a := 0; a < len(idx); {
		c := a
		for c < len(idx) && same(idx[a], idx[c]) {
			c++
		}
		for d := 0; d < b.nd; d++ {
			if d == level {
				// The collapsed dimension.
				t.dims[d] = append(t.dims[d], StarID)
			} else {
				// Dimensions above the split level share one value
				// across the whole range (the path value, or StarID
				// from an earlier star path); dimensions below keep
				// the group key.
				t.dims[d] = append(t.dims[d], t.dims[d][idx[a]])
			}
		}
		for m := 0; m < b.nm; m++ {
			var sum float64
			for k := a; k < c; k++ {
				sum += t.sums[m][idx[k]]
			}
			t.sums[m] = append(t.sums[m], sum)
		}
		var count int64
		for k := a; k < c; k++ {
			count += t.counts[idx[k]]
		}
		t.counts = append(t.counts, count)
		a = c
	}
}

// IDMatcher reports whether a dict id satisfies a dimension's predicate.
type IDMatcher func(id int32) bool

// Scan traverses the tree and invokes visit for every pre-aggregated record
// matching the query shape. matchers maps split-order dimension index →
// predicate (absent means unconstrained); groupDims lists split-order
// indexes of GROUP BY columns (their actual values must be preserved, so
// star paths are not taken for them). It returns the number of
// pre-aggregated records scanned — the numerator of the Figure 13 ratio.
func (t *Tree) Scan(matchers map[int]IDMatcher, groupDims []int, visit func(rec int)) int {
	grouped := make(map[int]bool, len(groupDims))
	for _, d := range groupDims {
		grouped[d] = true
	}
	scanned := 0
	var walk func(n, level int)
	walk = func(n, level int) {
		nd := t.nodes[n*nodeFields:][:nodeFields]
		first, count := int(nd[nodeFirstChild]), int(nd[nodeNumChildren])
		if count == 0 {
			// Leaf: apply any unresolved predicates per record and
			// reject star values for grouped dimensions.
			for rec := nd[nodeStart]; rec < nd[nodeEnd]; rec++ {
				scanned++
				ok := true
				for d, m := range matchers {
					v := t.dims[d][int(rec)]
					if v == StarID || !m(v) {
						ok = false
						break
					}
				}
				if ok {
					for d := range grouped {
						if t.dims[d][int(rec)] == StarID {
							ok = false
							break
						}
					}
				}
				if ok {
					visit(int(rec))
				}
			}
			return
		}
		star := t.nodes[first*nodeFields+nodeDictID] == StarID
		m, hasPred := matchers[level]
		if star && !hasPred && !grouped[level] {
			walk(first, level+1)
			return
		}
		if star {
			first, count = first+1, count-1
		}
		for c := first; c < first+count; c++ {
			if !hasPred || m(t.nodes[c*nodeFields+nodeDictID]) {
				walk(c, level+1)
			}
		}
	}
	walk(0, 0)
	return scanned
}

package query

import (
	"fmt"
	"slices"

	"pinot/internal/pql"
	"pinot/internal/segment"
)

// Selection is a selection's rows, the one representation every layer holds
// from a segment's scan to Finalize: one keyColumn per SelectCols entry, the
// group table's key column. A single-value column holds a value a row. A
// multi-value column holds every row's values end to end, and offs[c] says
// where each row starts: row i is values offs[c][i]:offs[c][i+1]. Nothing is
// boxed until Finalize, and Finalize boxes only the rows it returns.
//
// A selection of no row is a nil *Selection: the executors, the decoder and
// Merge never make an empty one.
type Selection struct {
	cols []keyColumn
	// offs is nil when no column is multi-value; else offs[c] is nil for a
	// single-value column and n+1 offsets, from 0, for a multi-value one.
	offs [][]int
	n    int
}

// Len returns the number of rows; a nil selection has none.
func (s *Selection) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// rowOffs returns column c's row offsets, nil for a single-value column.
func (s *Selection) rowOffs(c int) []int {
	if s.offs == nil {
		return nil
	}
	return s.offs[c]
}

func (k *keyColumn) len() int {
	if k.kind == keyString {
		return len(k.strs)
	}
	return len(k.nums)
}

// AppendRow adds a row of boxed cells to a selection, one per SelectCols
// entry: an int64, a float64, a string or a bool, or for a multi-value
// column a []any of those. The first row says which columns are
// multi-value, and the first value of a column its type; a later cell must
// agree. A row that does not is not added.
func (r *Intermediate) AppendRow(cells ...any) error {
	if len(cells) != len(r.SelectCols) {
		return fmt.Errorf("query: a row of %d cells for a selection of %d columns", len(cells), len(r.SelectCols))
	}
	s := r.Selection
	if s == nil {
		s = &Selection{cols: make([]keyColumn, len(cells))}
		for c, v := range cells {
			if _, ok := v.([]any); ok {
				if s.offs == nil {
					s.offs = make([][]int, len(cells))
				}
				s.offs[c] = []int{0}
			}
		}
	}
	var err error
	for c, v := range cells {
		k := &s.cols[c]
		list, isList := v.([]any)
		if offs := s.rowOffs(c); offs == nil || !isList {
			if offs != nil || isList {
				err = fmt.Errorf("query: column %d mixes multi-value and single-value cells", c)
			} else {
				err = k.appendValue(v)
			}
		} else {
			for _, x := range list {
				if err = k.appendValue(x); err != nil {
					break
				}
			}
			s.offs[c] = append(offs, k.len())
		}
		if err != nil {
			s.truncate(s.n, c)
			return err
		}
	}
	s.n++
	r.Selection = s
	return nil
}

// truncate drops what columns [0, through] hold past row n.
func (s *Selection) truncate(n, through int) {
	for c := 0; c <= through; c++ {
		end := n
		if offs := s.rowOffs(c); offs != nil {
			s.offs[c] = offs[:n+1]
			end = offs[n]
		}
		s.cols[c].truncate(end)
	}
}

// shapedLike returns an empty selection with o's columns: their kinds, and
// which are multi-value.
func shapedLike(o *Selection) *Selection {
	s := &Selection{cols: make([]keyColumn, len(o.cols))}
	for c := range o.cols {
		s.cols[c].kind = o.cols[c].kind
		if o.rowOffs(c) != nil {
			if s.offs == nil {
				s.offs = make([][]int, len(o.cols))
			}
			s.offs[c] = []int{0}
		}
	}
	return s
}

// grow returns s — or, when s has no row, an empty selection shaped like the
// first of parts that has one — with room in every column for the rows of
// parts as well as its own, so appending them allocates nothing more.
func (s *Selection) grow(parts []*Selection) *Selection {
	for _, o := range parts {
		if s == nil && o != nil {
			s = shapedLike(o)
		}
	}
	if s == nil {
		return nil
	}
	for c := range s.cols {
		rows, values := s.n, s.cols[c].len()
		for _, o := range parts {
			if o != nil && c < len(o.cols) {
				rows += o.n
				values += o.cols[c].len()
			}
		}
		k := &s.cols[c]
		if k.kind == keyString {
			k.strs = slices.Grow(k.strs, values-len(k.strs))
		} else {
			k.nums = slices.Grow(k.nums, values-len(k.nums))
		}
		if offs := s.rowOffs(c); offs != nil {
			s.offs[c] = slices.Grow(offs, rows+1-len(offs))
		}
	}
	return s
}

// appendRows appends o's rows to s and returns the result: s itself, or when
// s has no row a new selection shaped like o. o is only read; its strings
// are shared, being immutable.
func (s *Selection) appendRows(o *Selection) (*Selection, error) {
	if o.Len() == 0 {
		return s, nil
	}
	if s == nil {
		s = shapedLike(o)
	}
	if len(s.cols) != len(o.cols) {
		return s, fmt.Errorf("query: cannot merge a selection of %d columns into one of %d", len(o.cols), len(s.cols))
	}
	for c := range s.cols {
		k, ok := &s.cols[c], &o.cols[c]
		if (s.rowOffs(c) == nil) != (o.rowOffs(c) == nil) {
			return s, fmt.Errorf("query: cannot merge selection column %d: multi-value and single-value", c)
		}
		if k.kind != ok.kind && k.len() > 0 && ok.len() > 0 {
			return s, fmt.Errorf("query: cannot merge selection column %d: %v into %v", c, ok.kind, k.kind)
		}
	}
	for c := range s.cols {
		k, ok := &s.cols[c], &o.cols[c]
		base := k.len()
		if base == 0 {
			k.kind = ok.kind
		}
		if k.kind == keyString {
			k.strs = append(k.strs, ok.strs...)
		} else {
			k.nums = append(k.nums, ok.nums...)
		}
		if offs := s.rowOffs(c); offs != nil {
			for _, end := range o.offs[c][1:] {
				offs = append(offs, base+end)
			}
			s.offs[c] = offs
		}
	}
	s.n += o.n
	return s, nil
}

// take returns a selection of the given rows of s, in that order.
func (s *Selection) take(rows []int) *Selection {
	out := shapedLike(s)
	out.n = len(rows)
	for c := range s.cols {
		k, dst := &s.cols[c], &out.cols[c]
		offs := s.rowOffs(c)
		for _, i := range rows {
			if offs == nil {
				dst.appendFrom(k, i)
				continue
			}
			for j := offs[i]; j < offs[i+1]; j++ {
				dst.appendFrom(k, j)
			}
			out.offs[c] = append(out.offs[c], dst.len())
		}
	}
	return out
}

// order returns s's row indexes sorted by ORDER BY: each key compared as
// segment.CompareValues compares the boxed values, ties kept in row order
// (the sort is stable). cols names s's columns. A multi-value column has no
// order; the engine refuses to sort by one, and here it compares equal.
func (s *Selection) order(by []pql.OrderSpec, cols []string) []int {
	type sortKey struct {
		k    *keyColumn
		desc bool
	}
	keys := make([]sortKey, 0, len(by))
	for _, o := range by {
		if c := slices.Index(cols, o.Column); c >= 0 && s.rowOffs(c) == nil {
			keys = append(keys, sortKey{&s.cols[c], o.Descending})
		}
	}
	perm := make([]int, s.n)
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(a, b int) int {
		for _, key := range keys {
			if c := key.k.compare(a, b); c != 0 {
				if key.desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	return perm
}

// rows is a selection's finalized result: sorted by ORDER BY, cut by OFFSET
// and LIMIT, and only then boxed, the first visible columns of the rows
// kept, into one arena of cells; a multi-value cell is a list of its own,
// []any{} when empty.
func (s *Selection) rows(q *pql.Query, cols []string, visible int) [][]any {
	n := s.Len()
	if q.Offset >= n {
		return nil
	}
	var perm []int
	if len(q.OrderBy) > 0 {
		perm = s.order(q.OrderBy, cols)
	}
	kept := n - q.Offset
	if q.Limit >= 0 && kept > q.Limit {
		kept = q.Limit
	}
	row := func(i int) int {
		if perm != nil {
			return perm[q.Offset+i]
		}
		return q.Offset + i
	}
	out := make([][]any, kept)
	cells := make([]any, kept*visible)
	for i := range out {
		r := row(i)
		out[i] = cells[i*visible : (i+1)*visible : (i+1)*visible]
		for c := range out[i] {
			k := &s.cols[c]
			offs := s.rowOffs(c)
			if offs == nil {
				out[i][c] = k.value(r)
				continue
			}
			list := make([]any, offs[r+1]-offs[r])
			for j := range list {
				list[j] = k.value(offs[r] + j)
			}
			out[i][c] = list
		}
	}
	return out
}

// sizeBytes prices the rows as the boxed rows they finalize to: a row
// header per row, a cell per column, and the bytes of each single-value
// string.
func (s *Selection) sizeBytes() int64 {
	if s == nil {
		return 0
	}
	n := int64(s.n) * int64(sizePerEntry+len(s.cols)*sizePerValue)
	for c := range s.cols {
		if s.rowOffs(c) == nil {
			for _, v := range s.cols[c].strs {
				n += int64(len(v))
			}
		}
	}
	return n
}

// conforms checks that s has ncols columns and each holds its rows.
func (s *Selection) conforms(ncols int) error {
	if s == nil {
		return nil
	}
	if len(s.cols) != ncols || (s.offs != nil && len(s.offs) != ncols) {
		return fmt.Errorf("query: selection of %d columns, want %d", len(s.cols), ncols)
	}
	for c := range s.cols {
		values := s.n
		if offs := s.rowOffs(c); offs != nil {
			if len(offs) != s.n+1 || offs[0] != 0 || !slices.IsSorted(offs) {
				return fmt.Errorf("query: multi-value column %d has %d offsets for %d rows", c, len(offs), s.n)
			}
			values = offs[s.n]
		}
		if got := s.cols[c].len(); got != values {
			return fmt.Errorf("query: selection column %d holds %d values, want %d", c, got, values)
		}
	}
	return nil
}

// appendBlock appends the documents of a block, one row each, reading every
// column in one batch: metrics as int64s or float64s, dictionary columns as
// ids turned into values through their dictionary. sc lends the buffers.
func (s *Selection) appendBlock(readers []segment.ColumnReader, block []int, sc *blockScratch) {
	n := len(block)
	for c, col := range readers {
		k := &s.cols[c]
		f := col.Spec()
		switch {
		case f.Kind == segment.Metric && f.Type.Integral():
			vs := sc.longBuf(n)
			col.Longs(block, vs)
			k.kind = keyLong
			for _, v := range vs {
				k.nums = append(k.nums, uint64(v))
			}
		case f.Kind == segment.Metric:
			vs := sc.doubleBuf(n)
			col.Doubles(block, vs)
			k.kind = keyDouble
			for _, v := range vs {
				k.nums = append(k.nums, doubleBits(v))
			}
		case f.SingleValue:
			ids := sc.idBuf(0, n)
			col.DictIDs(block, ids)
			appendDict(k, col, ids)
		default:
			offs := s.offs[c]
			for _, doc := range block {
				sc.mv = col.DictIDsMV(doc, sc.mv[:0])
				appendDict(k, col, sc.mv)
				offs = append(offs, k.len())
			}
			s.offs[c] = offs
		}
	}
	s.n += n
}

// newSelection returns an empty selection of the given columns.
func newSelection(readers []segment.ColumnReader) *Selection {
	s := &Selection{cols: make([]keyColumn, len(readers))}
	for c, col := range readers {
		if !col.Spec().SingleValue {
			if s.offs == nil {
				s.offs = make([][]int, len(readers))
			}
			s.offs[c] = []int{0}
		}
	}
	return s
}

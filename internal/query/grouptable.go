package query

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sync"

	"pinot/internal/pql"
	"pinot/internal/segment"
)

// GroupTable is the state of an aggregation, the one representation every
// layer holds: the segment kernels fill it, the wire layout writes it column
// by column, Merge folds one into another and Finalize reads it. It is a
// struct of arrays indexed by group ordinal (the order groups were first met):
// one typed key column per GROUP BY item, and per aggregate one flat column
// for each field of an AggState that the aggregate's function reads. Nothing
// is allocated per group but the strings, sets and lists a group owns.
//
// A query without GROUP BY is the group-by of no keys: every document has the
// same (empty) key, so its table has no key column and always exactly one
// row, row 0, which exists before any document is folded into it.
//
// Three indexes map a key tuple to its ordinal. Inside a segment the key
// columns hold dictionary ids, and a flat id→ordinal array (one small
// dictionary) or a map keyed by the ids packed into a uint64 (several) finds
// the group; those live in the groupers of vexec.go. Everything else — ids
// too wide to pack, expression keys, the star-tree scan and Merge — goes
// through the table's own open-addressed hash over the typed tuple
// (commit). Dictionary ids are decoded to values once, when the
// segment is done (decodeKeys).
//
// Inside Engine.Execute a segment's table is scratch. executeGroupBy takes
// it from tablePool (scratchTable) and fills it; fold merges the segments'
// tables into the first, copies that out at its exact size (exact) and
// releases every one, merge error or not. Nothing else releases a table, so
// none the caller can hold goes back to the pool: not ExecuteSegment's, not
// the lone result of a single segment, not a decoded or merged one. A table
// of more than maxPooledGroups rows is left to the collector.
type GroupTable struct {
	keys []keyColumn
	aggs []aggColumn
	n    int
	// slots is the hash index: the ordinal+1 of the group whose key hashes
	// there, 0 when empty. It is empty until a find-or-insert first needs it
	// (a decoded table that is only ever merged from never builds one).
	slots []uint32
}

var tablePool = sync.Pool{New: func() any { return new(GroupTable) }}

// scratchTable is NewGroupTable from tablePool: the table comes back with
// the capacity of its columns and hash index.
func scratchTable(nKeys int, exprs []pql.Expression) *GroupTable {
	return tablePool.Get().(*GroupTable).reset(nKeys, exprs)
}

// release empties a scratch table into tablePool and reports whether it did;
// one of more than maxPooledGroups rows is dropped instead. Its strings alias
// segment dictionaries, so their headers are cleared: a pooled table pins no
// dropped segment's buffer. So are its value lists and sets, which may have
// moved to a copy (exact).
func (t *GroupTable) release() bool {
	if t == nil || t.n > maxPooledGroups {
		return false
	}
	for c := range t.keys {
		k := &t.keys[c]
		clear(k.strs[:cap(k.strs)])
		k.kind, k.strs, k.nums = keyUnset, k.strs[:0], k.nums[:0]
	}
	for a := range t.aggs {
		c := &t.aggs[a]
		clear(c.values[:cap(c.values)])
		*c = aggColumn{count: c.count[:0], sum: c.sum[:0], extreme: c.extreme[:0], seen: c.seen[:0], values: c.values[:0]}
	}
	t.n, t.slots = 0, t.slots[:0]
	tablePool.Put(t)
	return true
}

// exact returns a copy of t in storage of exactly its size, with no hash
// index; t's value lists and sets move to the copy, so t may be released.
func (t *GroupTable) exact() *GroupTable {
	if t == nil {
		return nil
	}
	out := &GroupTable{keys: make([]keyColumn, len(t.keys)), aggs: make([]aggColumn, len(t.aggs)), n: t.n}
	for c, k := range t.keys {
		out.keys[c] = keyColumn{kind: k.kind, strs: copied(k.strs), nums: copied(k.nums)}
	}
	for a := range t.aggs {
		c := &t.aggs[a]
		out.aggs[a] = aggColumn{fn: c.fn, has: c.has, count: copied(c.count), sum: copied(c.sum),
			extreme: copied(c.extreme), seen: copied(c.seen), values: copied(c.values), set: c.set}
		c.set = nil
	}
	return out
}

// copied returns a copy of s, nil when s is empty (where slices.Clone would
// still point into s's array, keeping a pooled column alive).
func copied[T any](s []T) []T { return append([]T(nil), s...) }

// keyKind is the type of a key column. The value kinds are numbered like the
// cells of the wire layout, which writes them as the column's tag.
type keyKind uint8

const (
	keyUnset  keyKind = 0 // no row has told the column its type yet
	keyLong   keyKind = cellInt64
	keyDouble keyKind = cellFloat64
	keyString keyKind = cellString
	keyBool   keyKind = cellBool
	keyDictID keyKind = 0xff // inside a segment: ids of a column's dictionary
)

func (k keyKind) String() string {
	return map[keyKind]string{keyLong: "int64", keyDouble: "float64", keyString: "string", keyBool: "bool", keyDictID: "dictionary id"}[k]
}

// keyColumn holds one GROUP BY item's value for every group. Strings sit in
// strs; every other kind sits in nums as 64 bits (the int64, the float64's
// bits, 0 or 1, the dictionary id), so two keys are equal exactly when their
// bits are: -0.0 and 0.0 are two groups, and doubleBits makes every NaN one.
type keyColumn struct {
	kind keyKind
	strs []string
	nums []uint64
}

var nanBits = math.Float64bits(math.NaN())

func doubleBits(f float64) uint64 {
	if f != f {
		return nanBits
	}
	return math.Float64bits(f)
}

func boolBits(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// appendValue stages a boxed value as the column's next row. The first value
// of an untyped column sets its kind; one of another type is an error.
func (k *keyColumn) appendValue(v any) error {
	var kind keyKind
	var bits uint64
	switch x := v.(type) {
	case string:
		kind = keyString
	case int64:
		kind, bits = keyLong, uint64(x)
	case float64:
		kind, bits = keyDouble, doubleBits(x)
	case bool:
		kind, bits = keyBool, boolBits(x)
	default:
		return fmt.Errorf("query: a group key cannot hold %T", v)
	}
	if k.kind == keyUnset {
		k.kind = kind
	}
	if k.kind != kind {
		return fmt.Errorf("query: group key column holds %v, got %v", k.kind, kind)
	}
	if kind == keyString {
		k.strs = append(k.strs, v.(string))
	} else {
		k.nums = append(k.nums, bits)
	}
	return nil
}

// appendFrom stages row j of a column of the same kind.
func (k *keyColumn) appendFrom(o *keyColumn, j int) {
	if k.kind == keyString {
		k.strs = append(k.strs, o.strs[j])
	} else {
		k.nums = append(k.nums, o.nums[j])
	}
}

func (k *keyColumn) truncate(n int) {
	if k.kind == keyString {
		k.strs = k.strs[:n]
	} else {
		k.nums = k.nums[:n]
	}
}

// same reports whether row i equals row j of o, a column of the same kind
// (k itself, or another table's).
func (k *keyColumn) same(i int, o *keyColumn, j int) bool {
	if k.kind == keyString {
		return k.strs[i] == o.strs[j]
	}
	return k.nums[i] == o.nums[j]
}

var hashSeed = maphash.MakeSeed()

func (k *keyColumn) hash(h uint64, i int) uint64 {
	x := uint64(0)
	if k.kind == keyString {
		x = maphash.String(hashSeed, k.strs[i])
	} else {
		x = k.nums[i]
	}
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// value boxes row i: what a result row carries.
func (k *keyColumn) value(i int) any {
	switch k.kind {
	case keyString:
		return k.strs[i]
	case keyLong:
		return int64(k.nums[i])
	case keyDouble:
		return math.Float64frombits(k.nums[i])
	case keyBool:
		return k.nums[i] != 0
	}
	return nil
}

// compare orders rows i and j as segment.CompareValues orders their values.
func (k *keyColumn) compare(i, j int) int {
	switch k.kind {
	case keyString:
		return cmp.Compare(k.strs[i], k.strs[j])
	case keyDouble:
		x, y := math.Float64frombits(k.nums[i]), math.Float64frombits(k.nums[j])
		if x < y {
			return -1
		} else if x > y {
			return 1
		}
		return 0
	}
	return cmp.Compare(int64(k.nums[i]), int64(k.nums[j]))
}

// typedDict returns the values of a column's dictionary in the slice the
// dictionary keeps them in, when that is strings or int64s (what group keys
// nearly always are): a reader of many values takes them from it instead of
// boxing each through Value. Both are nil for any other dictionary.
func typedDict(col segment.ColumnReader) (strs []string, longs []int64) {
	if c, ok := col.(interface {
		DictStrings() []string
		DictLongs() []int64
	}); ok {
		return c.DictStrings(), c.DictLongs()
	}
	return nil, nil
}

// decodeDict turns a column of dictionary ids into the values they stand
// for; strings alias the dictionary's. A string column keeps the ids'
// backing array, empty, for the next use of a scratch table.
func (k *keyColumn) decodeDict(col segment.ColumnReader) {
	ids := k.nums
	k.kind, k.nums = keyUnset, ids[:0]
	appendDict(k, col, ids)
	if k.kind == keyString {
		k.nums = k.nums[:0]
	}
}

// appendDict appends the values of a column's dictionary ids to k, taking
// them from the dictionary's own slice through typedDict when it has one;
// only another reader (doubles, bools, a default column) boxes its values,
// the first of which sets the column's kind. ids may be k.nums' own backing
// array from row len(k.nums) on: value i is written after id i is read.
func appendDict[I ~int | ~uint32 | ~uint64](k *keyColumn, col segment.ColumnReader, ids []I) {
	switch strs, longs := typedDict(col); {
	case strs != nil:
		k.kind, k.strs = keyString, slices.Grow(k.strs, len(ids))
		for _, id := range ids {
			k.strs = append(k.strs, strs[id])
		}
	case longs != nil:
		k.kind, k.nums = keyLong, slices.Grow(k.nums, len(ids))
		for _, id := range ids {
			k.nums = append(k.nums, uint64(longs[id]))
		}
	default:
		for _, id := range ids {
			_ = k.appendValue(col.Value(int(id))) // a dictionary holds one of the four key types
		}
	}
}

// NewGroupTable returns an empty table for a group-by of nKeys items under
// the given aggregates: untyped key columns (the first key types them) and
// one state column per aggregate; with no key, its one row in its fresh
// state. Upsert and SetState fill it; the engine's own paths fill theirs in
// place.
func NewGroupTable(nKeys int, exprs []pql.Expression) *GroupTable {
	return new(GroupTable).reset(nKeys, exprs)
}

// reset shapes an empty table, new or released, as NewGroupTable describes,
// keeping the storage it has.
func (t *GroupTable) reset(nKeys int, exprs []pql.Expression) *GroupTable {
	t.keys = slices.Grow(t.keys[:0], nKeys)[:nKeys]
	t.aggs = slices.Grow(t.aggs[:0], len(exprs))[:len(exprs)]
	for i, e := range exprs {
		c := &t.aggs[i]
		if c.fn, c.has = e.Func, carries(e.Func); c.has&fDistinct != 0 {
			c.set = map[distinctEntry]struct{}{}
		}
	}
	if nKeys == 0 {
		t.n = 1
		t.addStates()
	}
	return t
}

// Len returns the number of groups; a nil table has none.
func (t *GroupTable) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Values boxes the key of group i.
func (t *GroupTable) Values(i int) []any {
	out := make([]any, len(t.keys))
	for c := range t.keys {
		out[c] = t.keys[c].value(i)
	}
	return out
}

// State returns aggregate a's state of group i as an AggState: the fields
// the function carries, the rest as no document leaves them (at).
func (t *GroupTable) State(i, a int) AggState {
	c := &t.aggs[a]
	s := c.at(i)
	if c.has&fDistinct != 0 {
		s.Distinct = map[string]struct{}{}
		for e := range c.set {
			if int(e.ord) == i {
				s.Distinct[e.val] = struct{}{}
			}
		}
	}
	return s
}

// SetState overwrites aggregate a's state of group i with the fields of s
// that the function carries; a DISTINCTCOUNT set gains the members of
// s.Distinct.
func (t *GroupTable) SetState(i, a int, s AggState) {
	c := &t.aggs[a]
	c.put(i, &s)
	if c.has&fDistinct != 0 {
		for v := range s.Distinct {
			c.addDistinct(uint32(i), v)
		}
	}
}

// Upsert finds the group of a key, adding it when the table has not met it,
// and returns its ordinal. Each value must be an int64, a float64, a string
// or a bool, and of the type its column already holds.
func (t *GroupTable) Upsert(values []any) (int, error) {
	ord, err := t.upsert(values)
	return int(ord), err
}

func (t *GroupTable) upsert(values []any) (uint32, error) {
	if len(values) != len(t.keys) {
		return 0, fmt.Errorf("query: %d group values for %d key columns", len(values), len(t.keys))
	}
	for c, v := range values {
		if err := t.keys[c].appendValue(v); err != nil {
			for c := range t.keys {
				t.keys[c].truncate(t.n)
			}
			return 0, err
		}
	}
	ord, _ := t.commit()
	t.addStates()
	return ord, nil
}

// addStates gives the groups added since it was last called their fresh
// state in every aggregate column. Adding a group is appending its key and
// counting it (n++, as commit does); whoever adds groups calls addStates
// before it next touches a state, once for however many groups — so a block
// of documents or a merged frame grows each column once, not once a group.
func (t *GroupTable) addStates() {
	for a := range t.aggs {
		t.aggs[a].extend(t.n)
	}
}

func (t *GroupTable) hashRow(i int) uint64 {
	var h uint64
	for c := range t.keys {
		h = t.keys[c].hash(h, i)
	}
	return h
}

func (t *GroupTable) sameKey(i int, o *GroupTable, j int) bool {
	for c := range t.keys {
		if !t.keys[c].same(i, &o.keys[c], j) {
			return false
		}
	}
	return true
}

// commit is the find-or-insert for a key the caller has staged by appending
// it to every key column as row n: it returns the ordinal of the group with
// that key, keeping the staged row as a new group or dropping it when the
// group exists.
func (t *GroupTable) commit() (ord uint32, isNew bool) { return t.findOrAdd(t, t.n) }

// findOrAdd is the find-or-insert of the hash index: it returns the ordinal
// of the group whose key is row j of src, adding the group when t has not
// met the key. src is a table of t's key kinds — or t itself, with the key
// staged as row n. A group added here has no states until addStates.
func (t *GroupTable) findOrAdd(src *GroupTable, j int) (ord uint32, isNew bool) {
	if 2*(t.n+1) > len(t.slots) {
		t.reindex()
	}
	mask := uint64(len(t.slots) - 1)
	for p := src.hashRow(j) & mask; ; p = (p + 1) & mask {
		s := t.slots[p]
		if s == 0 {
			if src != t {
				for c := range t.keys {
					t.keys[c].appendFrom(&src.keys[c], j)
				}
			}
			t.slots[p] = uint32(t.n + 1)
			t.n++
			return uint32(t.n - 1), true
		}
		if t.sameKey(int(s-1), src, j) {
			if src == t {
				for c := range t.keys {
					t.keys[c].truncate(t.n)
				}
			}
			return s - 1, false
		}
	}
}

// reindex rebuilds the hash index over the table's groups with room for as
// many again, in the index's own storage when that is large enough, and
// reports whether their keys are distinct. A repeated key keeps its first
// ordinal.
func (t *GroupTable) reindex() (distinct bool) {
	size := 16
	for size < 4*(t.n+1) {
		size *= 2
	}
	t.slots = slices.Grow(t.slots[:0], size)[:size]
	clear(t.slots)
	mask := uint64(size - 1)
	distinct = true
rows:
	for i := 0; i < t.n; i++ {
		p := t.hashRow(i) & mask
		for ; t.slots[p] != 0; p = (p + 1) & mask {
			if t.sameKey(int(t.slots[p]-1), t, i) {
				distinct = false
				continue rows
			}
		}
		t.slots[p] = uint32(i + 1)
	}
	return distinct
}

// merge folds o's groups into t: each of o's rows finds or adds its group,
// in o's order, then each aggregate column folds o's states into the rows
// found. o is read, never written or kept: strings are shared (they are
// immutable), sets and lists are copied.
func (t *GroupTable) merge(o *GroupTable) error {
	if o.Len() == 0 {
		return nil
	}
	if len(t.keys) != len(o.keys) || len(t.aggs) != len(o.aggs) {
		return fmt.Errorf("query: cannot merge a group-by of %d keys and %d aggregates into one of %d and %d",
			len(o.keys), len(o.aggs), len(t.keys), len(t.aggs))
	}
	for a := range t.aggs {
		if t.aggs[a].fn != o.aggs[a].fn {
			return fmt.Errorf("query: cannot merge aggregate %d: %s into %s", a, o.aggs[a].fn, t.aggs[a].fn)
		}
	}
	for c := range t.keys {
		if t.keys[c].kind != o.keys[c].kind && (t.n > 0 || t.keys[c].kind != keyUnset) {
			return fmt.Errorf("query: cannot merge group key %d: %v into %v", c, o.keys[c].kind, t.keys[c].kind)
		}
	}
	for c := range t.keys {
		t.keys[c].kind = o.keys[c].kind
	}
	// Without a key column there is nothing to look up: both tables are
	// their row 0.
	var row0 [1]uint32
	ords := row0[:]
	if len(t.keys) > 0 {
		if len(t.slots) == 0 && !t.reindex() {
			return fmt.Errorf("query: a group-by result repeats a key")
		}
		ords = make([]uint32, o.n)
		for j := range ords {
			ords[j], _ = t.findOrAdd(o, j)
		}
		t.addStates()
	}
	for a := range t.aggs {
		t.aggs[a].merge(&o.aggs[a], ords)
	}
	return nil
}

// decodeKeys replaces the dictionary ids a segment's groupers left in the
// key columns with the values they stand for. The hash index, if one was
// built over ids, no longer describes the keys and is dropped.
func (t *GroupTable) decodeKeys(items []groupItem) {
	for c := range t.keys {
		if t.keys[c].kind == keyDictID {
			t.keys[c].decodeDict(items[c].col)
			t.slots = t.slots[:0]
		}
	}
}

// top returns the first n groups by the first aggregate descending, ties by
// key ascending (then by ordinal, so the order is total), as result rows:
// only the rows returned are boxed.
func (t *GroupTable) top(n int) [][]any {
	if t.Len() == 0 {
		return nil
	}
	order := make([]uint32, t.n)
	scores := make([]float64, t.n)
	for i := range order {
		order[i] = uint32(i)
		if len(t.aggs) > 0 {
			scores[i] = t.aggs[0].score(i)
		}
	}
	slices.SortFunc(order, func(a, b uint32) int {
		if scores[a] != scores[b] {
			if scores[a] > scores[b] {
				return -1
			}
			return 1
		}
		for c := range t.keys {
			if d := t.keys[c].compare(int(a), int(b)); d != 0 {
				return d
			}
		}
		return cmp.Compare(a, b)
	})
	if len(order) > n {
		order = order[:n]
	}
	width := len(t.keys) + len(t.aggs)
	cells := make([]any, len(order)*width)
	rows := make([][]any, len(order))
	for i, ord := range order {
		row := cells[i*width : (i+1)*width : (i+1)*width]
		for c := range t.keys {
			row[c] = t.keys[c].value(int(ord))
		}
		for a := range t.aggs {
			row[len(t.keys)+a] = t.aggs[a].result(int(ord))
		}
		rows[i] = row
	}
	return rows
}

// sizeBytes estimates the table's footprint: its fixed-width columns, its
// strings, its value lists and its sets. It is Intermediate.SizeBytes and a
// GROUP BY segment execution's Stats.GroupStateBytes.
func (t *GroupTable) sizeBytes() int64 {
	if t == nil {
		return 0
	}
	n := int64(t.n) * int64(16*len(t.keys)+16*len(t.aggs))
	for c := range t.keys {
		for _, s := range t.keys[c].strs {
			n += int64(len(s))
		}
	}
	for a := range t.aggs {
		for _, vs := range t.aggs[a].values {
			n += 8 * int64(len(vs))
		}
		for e := range t.aggs[a].set {
			n += int64(len(e.val)) + sizePerValue
		}
	}
	return n
}

// ---- state columns ----

// stateFields names the fields of an AggState. carries is the one place that
// says which of them a function reads: a state column holds those and no
// others, and the wire layout writes exactly the columns held.
type stateFields uint8

const (
	fCount stateFields = 1 << iota
	fSum
	fMin // and Seen
	fMax // and Seen
	fDistinct
	fValues
)

func carries(fn pql.AggFunc) stateFields {
	switch fn {
	case pql.Count:
		return fCount
	case pql.Sum:
		return fSum
	case pql.Avg:
		return fSum | fCount
	case pql.Min:
		return fMin
	case pql.Max:
		return fMax
	case pql.DistinctCount:
		return fDistinct
	}
	if _, ok := pql.PercentileQuantile(fn); ok {
		return fValues
	}
	return 0
}

// aggColumn is one aggregate's state for every group: AggState turned on its
// side, with a slice only for each field the function carries. What a
// function does with its fields is AggState's to say — at and put move a row
// through one, for the result and the tests — and
// what is written here is per field, whatever the function: the block kernels
// fold a block of documents into each field held, merge folds a column into
// each field held. DISTINCTCOUNT's sets are one map for the whole column.
type aggColumn struct {
	fn      pql.AggFunc
	has     stateFields
	count   []int64     // COUNT, AVG: rows folded in; DISTINCTCOUNT: the size of the group's set
	sum     []float64   // SUM, AVG
	extreme []float64   // MIN: the least value; MAX: the greatest
	seen    []bool      // MIN, MAX: whether extreme holds a value
	values  [][]float64 // PERCENTILE: the group's observations
	// DISTINCTCOUNT: every (group, value key) pair met.
	set map[distinctEntry]struct{}
}

type distinctEntry struct {
	ord uint32
	val string
}

// extend grows the column to n rows, the new ones as no document leaves
// them: nothing counted or summed, no extreme seen.
func (c *aggColumn) extend(n int) {
	if c.has&(fCount|fDistinct) != 0 {
		c.count = append(c.count, make([]int64, n-len(c.count))...)
	}
	if c.has&fSum != 0 {
		c.sum = append(c.sum, make([]float64, n-len(c.sum))...)
	}
	if c.has&(fMin|fMax) != 0 {
		fresh := math.Inf(1)
		if c.has&fMax != 0 {
			fresh = math.Inf(-1)
		}
		old := len(c.extreme)
		c.extreme = append(c.extreme, make([]float64, n-old)...)
		for i := old; i < n; i++ {
			c.extreme[i] = fresh
		}
		c.seen = append(c.seen, make([]bool, n-len(c.seen))...)
	}
	if c.has&fValues != 0 {
		c.values = append(c.values, make([][]float64, n-len(c.values))...)
	}
}

// at returns row i as an AggState (its Distinct left nil: see State).
func (c *aggColumn) at(i int) AggState {
	s := AggState{Func: c.fn, Min: math.Inf(1), Max: math.Inf(-1)}
	if c.has&fCount != 0 {
		s.Count = c.count[i]
	}
	if c.has&fSum != 0 {
		s.Sum = c.sum[i]
	}
	if c.has&fMin != 0 {
		s.Min, s.Seen = c.extreme[i], c.seen[i]
	}
	if c.has&fMax != 0 {
		s.Max, s.Seen = c.extreme[i], c.seen[i]
	}
	if c.has&fValues != 0 {
		s.Values = c.values[i]
	}
	return s
}

// put stores the carried fields of s as row i.
func (c *aggColumn) put(i int, s *AggState) {
	if c.has&fCount != 0 {
		c.count[i] = s.Count
	}
	if c.has&fSum != 0 {
		c.sum[i] = s.Sum
	}
	if c.has&fMin != 0 {
		c.extreme[i], c.seen[i] = s.Min, s.Seen
	}
	if c.has&fMax != 0 {
		c.extreme[i], c.seen[i] = s.Max, s.Seen
	}
	if c.has&fValues != 0 {
		c.values[i] = s.Values
	}
}

func (c *aggColumn) addDistinct(ord uint32, key string) {
	e := distinctEntry{ord, key}
	if _, ok := c.set[e]; !ok {
		c.set[e] = struct{}{}
		c.count[ord]++
	}
}

// addCounts is the COUNT block kernel: one more row for each document's group.
func (c *aggColumn) addCounts(ords []uint32) {
	if c.has&fCount != 0 {
		for _, o := range ords {
			c.count[o]++
		}
	}
}

// addNumerics is the block kernel of the numeric functions: vs[i] folds into
// group ords[i], document by document in block order, so every group's sum,
// extremes and value list come out as folding one document at a time would
// leave them.
func (c *aggColumn) addNumerics(ords []uint32, vs []float64) {
	c.addCounts(ords)
	if c.has&fSum != 0 {
		for i, o := range ords {
			c.sum[o] += vs[i]
		}
	}
	if c.has&fMin != 0 {
		for i, o := range ords {
			if vs[i] < c.extreme[o] {
				c.extreme[o] = vs[i]
			}
			c.seen[o] = true
		}
	}
	if c.has&fMax != 0 {
		for i, o := range ords {
			if vs[i] > c.extreme[o] {
				c.extreme[o] = vs[i]
			}
			c.seen[o] = true
		}
	}
	if c.has&fValues != 0 {
		for i, o := range ords {
			c.values[o] = append(c.values[o], vs[i])
		}
	}
}

// foldNumerics folds a block of values into row i alone, which is how an
// aggregation without GROUP BY folds every block: each field comes out as
// addNumerics would leave it, with the running sum or extreme in a register.
func (c *aggColumn) foldNumerics(i int, vs []float64) {
	if len(vs) == 0 {
		return
	}
	if c.has&fCount != 0 {
		c.count[i] += int64(len(vs))
	}
	if c.has&fSum != 0 {
		sum := c.sum[i]
		for _, v := range vs {
			sum += v
		}
		c.sum[i] = sum
	}
	if c.has&(fMin|fMax) != 0 {
		x := c.extreme[i]
		if c.has&fMin != 0 {
			for _, v := range vs {
				if v < x {
					x = v
				}
			}
		} else {
			for _, v := range vs {
				if v > x {
					x = v
				}
			}
		}
		c.extreme[i], c.seen[i] = x, true
	}
	if c.has&fValues != 0 {
		c.values[i] = append(c.values[i], vs...)
	}
}

// addRecord folds one star-tree record into row i: the n documents it
// pre-aggregates and, for SUM and AVG, the sum of their metric.
func (c *aggColumn) addRecord(i uint32, n int64, sum float64) {
	if c.has&fCount != 0 {
		c.count[i] += n
	}
	if c.has&fSum != 0 {
		c.sum[i] += sum
	}
}

// merge folds row j of o into row ords[j], for every j in order: counts and
// sums add, an extreme that was seen competes, lists and sets join.
func (c *aggColumn) merge(o *aggColumn, ords []uint32) {
	if c.has&fCount != 0 {
		for j, ord := range ords {
			c.count[ord] += o.count[j]
		}
	}
	if c.has&fSum != 0 {
		for j, ord := range ords {
			c.sum[ord] += o.sum[j]
		}
	}
	if c.has&(fMin|fMax) != 0 {
		for j, ord := range ords {
			if !o.seen[j] {
				continue
			}
			if v := o.extreme[j]; (c.has&fMin != 0 && v < c.extreme[ord]) || (c.has&fMax != 0 && v > c.extreme[ord]) {
				c.extreme[ord] = v
			}
			c.seen[ord] = true
		}
	}
	if c.has&fValues != 0 {
		for j, ord := range ords {
			c.values[ord] = append(c.values[ord], o.values[j]...)
		}
	}
	for e := range o.set {
		c.addDistinct(ords[e.ord], e.val)
	}
}

// number finalizes row i (see AggState.number).
func (c *aggColumn) number(i int) (n int64, f float64, integral, known bool) {
	if c.has&fDistinct != 0 {
		return c.count[i], 0, true, true
	}
	s := c.at(i)
	return s.number()
}

func (c *aggColumn) result(i int) any { return boxNumber(c.number(i)) }

// score is the value TOP n orders groups by.
func (c *aggColumn) score(i int) float64 {
	n, f, integral, _ := c.number(i)
	if integral {
		return float64(n)
	}
	return f
}

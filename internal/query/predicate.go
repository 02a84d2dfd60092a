package query

import (
	"cmp"
	"fmt"
	"math"
	"sort"

	"pinot/internal/bitmap"
	"pinot/internal/pql"
	"pinot/internal/segment"
)

// idRange is a half-open range [Lo, Hi) of dictionary ids.
type idRange struct {
	Lo, Hi int
}

// idSet is the compiled form of a single-column predicate against a
// segment's dictionary: the set of matching dict ids, as ranges when the
// dictionary is sorted or as an explicit list otherwise.
type idSet struct {
	card   int
	ranges []idRange // nil when list form is used
	list   []int     // sorted ascending
	lookup []bool    // membership table for list form, len card
}

func idSetFromRanges(card int, ranges ...idRange) *idSet {
	var keep []idRange
	for _, r := range ranges {
		if r.Hi > r.Lo {
			keep = append(keep, r)
		}
	}
	return &idSet{card: card, ranges: keep}
}

func idSetFromList(card int, ids []int) *idSet {
	lookup := make([]bool, card)
	var list []int
	for _, id := range ids {
		if id >= 0 && id < card && !lookup[id] {
			lookup[id] = true
			list = append(list, id)
		}
	}
	// Keep list sorted. sort.Ints, not an insertion sort: dictionary-space
	// predicates feed lists whose length scales with cardinality, where
	// O(n²) bites.
	sort.Ints(list)
	return &idSet{card: card, list: list, lookup: lookup}
}

// complement returns the ids not in s.
func (s *idSet) complement() *idSet {
	if s.ranges != nil {
		var out []idRange
		prev := 0
		for _, r := range s.ranges {
			if r.Lo > prev {
				out = append(out, idRange{prev, r.Lo})
			}
			prev = r.Hi
		}
		if prev < s.card {
			out = append(out, idRange{prev, s.card})
		}
		return &idSet{card: s.card, ranges: out}
	}
	var ids []int
	for id := 0; id < s.card; id++ {
		if !s.lookup[id] {
			ids = append(ids, id)
		}
	}
	return idSetFromList(s.card, ids)
}

// contains reports membership of a dict id.
func (s *idSet) contains(id int) bool {
	if s.ranges != nil {
		for _, r := range s.ranges {
			if id < r.Lo {
				return false
			}
			if id < r.Hi {
				return true
			}
		}
		return false
	}
	return id >= 0 && id < len(s.lookup) && s.lookup[id]
}

// isEmpty reports whether no ids match.
func (s *idSet) isEmpty() bool { return len(s.ranges) == 0 && len(s.list) == 0 }

// isAll reports whether every id matches.
func (s *idSet) isAll() bool {
	if s.ranges != nil {
		return len(s.ranges) == 1 && s.ranges[0].Lo == 0 && s.ranges[0].Hi == s.card
	}
	return len(s.list) == s.card
}

// size returns the number of matching ids.
func (s *idSet) size() int {
	if s.ranges != nil {
		n := 0
		for _, r := range s.ranges {
			n += r.Hi - r.Lo
		}
		return n
	}
	return len(s.list)
}

// each calls fn for every matching id in ascending order.
func (s *idSet) each(fn func(id int)) {
	if s.ranges != nil {
		for _, r := range s.ranges {
			for id := r.Lo; id < r.Hi; id++ {
				fn(id)
			}
		}
		return
	}
	for _, id := range s.list {
		fn(id)
	}
}

// eachRange calls fn for the matching ids as runs [lo, hi) of consecutive
// ids, in ascending order.
func (s *idSet) eachRange(fn func(lo, hi int)) {
	for _, r := range s.ranges {
		fn(r.Lo, r.Hi)
	}
	for i := 0; i < len(s.list); {
		j := i + 1
		for j < len(s.list) && s.list[j] == s.list[j-1]+1 {
			j++
		}
		fn(s.list[i], s.list[j-1]+1)
		i = j
	}
}

// compileLeaf compiles a leaf predicate against a dictionary column into the
// matching dict-id set. Equality and membership are dictionary lookups; a
// range is one id interval of a sorted dictionary, and what a scan of the
// dictionary finds in an unsorted one (a consuming segment's, in arrival
// order).
func compileLeaf(col segment.ColumnReader, pred pql.Predicate) (*idSet, error) {
	card := col.Cardinality()
	typ := col.Spec().Type
	coerce := func(v any) (any, error) {
		cv, err := segment.Canonicalize(typ, v)
		if err != nil {
			return nil, fmt.Errorf("query: predicate on %q: %w", col.Spec().Name, err)
		}
		return cv, nil
	}
	within := func(lower, upper any, loIncl, hiIncl bool) *idSet {
		if !col.DictSorted() {
			return idSetFromList(card, scanDict(col, lower, upper, loIncl, hiIncl))
		}
		lo, hi := col.Range(lower, upper, loIncl, hiIncl)
		return idSetFromRanges(card, idRange{lo, hi})
	}
	switch p := pred.(type) {
	case pql.Comparison:
		v, err := coerce(p.Value)
		if err != nil {
			return nil, err
		}
		switch p.Op {
		case pql.OpEq:
			if id, ok := col.IndexOf(v); ok {
				return idSetFromRanges(card, idRange{id, id + 1}), nil
			}
			return idSetFromRanges(card), nil
		case pql.OpNeq:
			if id, ok := col.IndexOf(v); ok {
				return idSetFromRanges(card, idRange{0, id}, idRange{id + 1, card}), nil
			}
			return idSetFromRanges(card, idRange{0, card}), nil
		case pql.OpLt:
			return within(nil, v, true, false), nil
		case pql.OpLte:
			return within(nil, v, true, true), nil
		case pql.OpGt:
			return within(v, nil, false, true), nil
		case pql.OpGte:
			return within(v, nil, true, true), nil
		}
		return nil, fmt.Errorf("query: unsupported operator %q", p.Op)
	case pql.Between:
		lo, err := coerce(p.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := coerce(p.Hi)
		if err != nil {
			return nil, err
		}
		return within(lo, hi, true, true), nil
	case pql.In:
		var ids []int
		for _, raw := range p.Values {
			v, err := coerce(raw)
			if err != nil {
				return nil, err
			}
			if id, ok := col.IndexOf(v); ok {
				ids = append(ids, id)
			}
		}
		set := idSetFromList(card, ids)
		if p.Negated {
			return set.complement(), nil
		}
		return set, nil
	}
	return nil, fmt.Errorf("query: unsupported predicate %T", pred)
}

// scanDict returns, ascending, the ids of an unsorted dictionary whose value
// lies within the bounds (nil: unbounded). String and int64 dictionaries are
// compared in the slice they keep their values in; the others box each value.
func scanDict(col segment.ColumnReader, lower, upper any, loIncl, hiIncl bool) []int {
	switch strs, longs := typedDict(col); {
	case strs != nil:
		return scanValues(strs, lower, upper, loIncl, hiIncl)
	case longs != nil:
		return scanValues(longs, lower, upper, loIncl, hiIncl)
	}
	var ids []int
	for id, card := 0, col.Cardinality(); id < card; id++ {
		v := col.Value(id)
		if lower != nil {
			if c := segment.CompareValues(v, lower); c < 0 || (c == 0 && !loIncl) {
				continue
			}
		}
		if upper != nil {
			if c := segment.CompareValues(v, upper); c > 0 || (c == 0 && !hiIncl) {
				continue
			}
		}
		ids = append(ids, id)
	}
	return ids
}

func scanValues[T cmp.Ordered](vals []T, lower, upper any, loIncl, hiIncl bool) []int {
	lo, hasLo := lower.(T)
	hi, hasHi := upper.(T)
	var ids []int
	for id, v := range vals {
		if hasLo && (v < lo || (v == lo && !loIncl)) {
			continue
		}
		if hasHi && (v > hi || (v == hi && !hiIncl)) {
			continue
		}
		ids = append(ids, id)
	}
	return ids
}

// valueMatcher builds a canonical-value-level predicate function, used for
// raw (no-dictionary) columns.
func valueMatcher(typ segment.DataType, pred pql.Predicate) (func(any) bool, error) {
	coerce := func(v any) (any, error) { return segment.Canonicalize(typ, v) }
	switch p := pred.(type) {
	case pql.Comparison:
		v, err := coerce(p.Value)
		if err != nil {
			return nil, err
		}
		op := p.Op
		return func(x any) bool {
			c := segment.CompareValues(x, v)
			switch op {
			case pql.OpEq:
				return c == 0
			case pql.OpNeq:
				return c != 0
			case pql.OpLt:
				return c < 0
			case pql.OpLte:
				return c <= 0
			case pql.OpGt:
				return c > 0
			case pql.OpGte:
				return c >= 0
			}
			return false
		}, nil
	case pql.Between:
		lo, err := coerce(p.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := coerce(p.Hi)
		if err != nil {
			return nil, err
		}
		return func(x any) bool {
			return segment.CompareValues(x, lo) >= 0 && segment.CompareValues(x, hi) <= 0
		}, nil
	case pql.In:
		set := make(map[any]bool, len(p.Values))
		for _, raw := range p.Values {
			v, err := coerce(raw)
			if err != nil {
				return nil, err
			}
			set[v] = true
		}
		neg := p.Negated
		return func(x any) bool { return set[x] != neg }, nil
	}
	return nil, fmt.Errorf("query: unsupported predicate %T", pred)
}

// compileRawTest is the typed counterpart of valueMatcher for raw columns: it
// compiles the predicate to bounds on T the scan cursor tests without boxing
// or a call per value. lowest and highest are T's extremes, standing in for
// the missing bound of a one-sided comparison. The test — inside [lo, hi]
// when neither v < lo nor v > hi, complemented by neg — accepts and rejects
// exactly what valueMatcher does over canonical values, NaN included:
// segment.CompareValues calls NaN equal to everything, and both compares are
// false on it.
func compileRawTest[T int64 | float64](typ segment.DataType, pred pql.Predicate, lowest, highest T) (rawTest[T], error) {
	coerce := func(v any) (T, error) {
		cv, err := segment.Canonicalize(typ, v)
		if err != nil {
			var zero T
			return zero, err
		}
		return cv.(T), nil
	}
	switch p := pred.(type) {
	case pql.Comparison:
		v, err := coerce(p.Value)
		if err != nil {
			return rawTest[T]{}, err
		}
		switch p.Op {
		case pql.OpEq:
			return rawTest[T]{lo: v, hi: v}, nil
		case pql.OpNeq:
			return rawTest[T]{lo: v, hi: v, neg: true}, nil
		case pql.OpLte:
			return rawTest[T]{lo: lowest, hi: v}, nil
		case pql.OpGt:
			return rawTest[T]{lo: lowest, hi: v, neg: true}, nil
		case pql.OpGte:
			return rawTest[T]{lo: v, hi: highest}, nil
		case pql.OpLt:
			return rawTest[T]{lo: v, hi: highest, neg: true}, nil
		}
		return rawTest[T]{}, fmt.Errorf("query: unsupported operator %q", p.Op)
	case pql.Between:
		lo, err := coerce(p.Lo)
		if err != nil {
			return rawTest[T]{}, err
		}
		hi, err := coerce(p.Hi)
		if err != nil {
			return rawTest[T]{}, err
		}
		return rawTest[T]{lo: lo, hi: hi}, nil
	case pql.In:
		set := make(map[T]bool, len(p.Values))
		for _, raw := range p.Values {
			v, err := coerce(raw)
			if err != nil {
				return rawTest[T]{}, err
			}
			set[v] = true
		}
		neg := p.Negated
		return rawTest[T]{in: func(x T) bool { return set[x] != neg }}, nil
	}
	return rawTest[T]{}, fmt.Errorf("query: unsupported predicate %T", pred)
}

// newRawLeaf compiles a predicate on a raw metric column into the scan
// cursor's leaf form.
func newRawLeaf(col segment.ColumnReader, pred pql.Predicate, stats *Stats) (*scanLeaf, error) {
	leaf := &scanLeaf{col: col, stats: stats, perEntry: 1}
	typ := col.Spec().Type
	var err error
	if typ.Integral() {
		leaf.kind = scanLongs
		if leaf.long, err = compileRawTest[int64](typ, pred, math.MinInt64, math.MaxInt64); leaf.long.in != nil {
			leaf.kind = scanLongIn
		}
	} else {
		leaf.kind = scanDoubles
		if leaf.double, err = compileRawTest(typ, pred, math.Inf(-1), math.Inf(1)); leaf.double.in != nil {
			leaf.kind = scanDoubleIn
		}
	}
	return leaf, err
}

// unionBitmaps ORs the posting lists of every matching dict id.
func unionBitmaps(col segment.ColumnReader, set *idSet) *bitmap.Bitmap {
	out := bitmap.New()
	set.each(func(id int) {
		out = bitmap.Or(out, col.Inverted(id))
	})
	return out
}

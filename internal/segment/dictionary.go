package segment

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"

	"pinot/internal/view"
)

// Dictionary maps between dictionary ids and column values. An immutable
// segment's dictionaries are value-sorted, so ascending dict ids correspond
// to ascending values and range predicates reduce to dict-id ranges.
type Dictionary interface {
	Len() int
	// Value returns the value for a dict id.
	Value(id int) any
	// IndexOf returns the dict id of a canonical value.
	IndexOf(v any) (int, bool)
	// Range returns the dict-id half-open interval [lo, hi) of values
	// within the given bounds. nil means unbounded on that side.
	Range(lower, upper any, lowerInclusive, upperInclusive bool) (int, int)
	// Min and Max return the smallest and largest values.
	Min() any
	Max() any
}

// sortedDictionary is the dictionary of int64, float64 and string columns:
// the distinct values in ascending order. In a loaded segment values is a
// view of the segment's buffer (strings: headers pointing into it).
type sortedDictionary[T cmp.Ordered] struct{ values []T }

func (d *sortedDictionary[T]) Len() int         { return len(d.values) }
func (d *sortedDictionary[T]) Value(id int) any { return d.values[id] }
func (d *sortedDictionary[T]) Min() any         { return d.values[0] }
func (d *sortedDictionary[T]) Max() any         { return d.values[len(d.values)-1] }

// bound returns the first id whose value is greater than x, or, with orEqual,
// at least x.
func (d *sortedDictionary[T]) bound(x T, orEqual bool) int {
	lo, hi := 0, len(d.values)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v := d.values[mid]; v < x || (!orEqual && v == x) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (d *sortedDictionary[T]) IndexOf(v any) (int, bool) {
	x, ok := v.(T)
	if !ok {
		return 0, false
	}
	if i := d.bound(x, true); i < len(d.values) && d.values[i] == x {
		return i, true
	}
	return 0, false
}

func (d *sortedDictionary[T]) Range(lower, upper any, loIncl, hiIncl bool) (int, int) {
	lo, hi := 0, len(d.values)
	if lower != nil {
		lo = d.bound(lower.(T), loIncl)
	}
	if upper != nil {
		hi = d.bound(upper.(T), !hiIncl)
	}
	return lo, max(lo, hi)
}

// ascending reports whether the values strictly ascend, which every lookup
// above assumes.
func (d *sortedDictionary[T]) ascending() bool {
	for i := 1; i < len(d.values); i++ {
		if !(d.values[i-1] < d.values[i]) {
			return false
		}
	}
	return true
}

type boolDictionary struct{ values []bool } // sorted: false before true

func (d *boolDictionary) Len() int         { return len(d.values) }
func (d *boolDictionary) Value(id int) any { return d.values[id] }
func (d *boolDictionary) Min() any         { return d.values[0] }
func (d *boolDictionary) Max() any         { return d.values[len(d.values)-1] }
func (d *boolDictionary) IndexOf(v any) (int, bool) {
	x, ok := v.(bool)
	if !ok {
		return 0, false
	}
	for i, b := range d.values {
		if b == x {
			return i, true
		}
	}
	return 0, false
}
func (d *boolDictionary) Range(lower, upper any, loIncl, hiIncl bool) (int, int) {
	lo, hi := 0, len(d.values)
	if lower != nil {
		x := lower.(bool)
		for lo < hi {
			v := d.values[lo]
			if CompareValues(v, x) > 0 || (loIncl && v == x) {
				break
			}
			lo++
		}
	}
	if upper != nil {
		x := upper.(bool)
		for hi > lo {
			v := d.values[hi-1]
			if CompareValues(v, x) < 0 || (hiIncl && v == x) {
				break
			}
			hi--
		}
	}
	return lo, hi
}

// A string dictionary is stored as its values in id order, each a u32 length
// and the bytes, and a bool dictionary as one byte a value.

func appendStrings(dst []byte, values []string) []byte {
	for _, s := range values {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// viewStrings returns the n strings stored in b as one array of headers
// pointing into b.
func viewStrings(b []byte, n uint64) ([]string, error) {
	if n*4 > uint64(len(b)) {
		return nil, fmt.Errorf("%d strings in %d bytes", n, len(b))
	}
	values := make([]string, n)
	for i := range values {
		if len(b) < 4 {
			return nil, errors.New("string dictionary cut short")
		}
		l := uint64(binary.LittleEndian.Uint32(b))
		if l > uint64(len(b)-4) {
			return nil, fmt.Errorf("string of %d bytes beyond the dictionary's end", l)
		}
		values[i] = view.String(b[4 : 4+l])
		b = b[4+l:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%d bytes after the last string", len(b))
	}
	return values, nil
}

func appendBools(dst []byte, values []bool) []byte {
	for _, v := range values {
		if v {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

func viewBools(b []byte) ([]bool, error) {
	if len(b) > 2 {
		return nil, fmt.Errorf("boolean dictionary of %d values", len(b))
	}
	values := make([]bool, len(b))
	for i, v := range b {
		if v > 1 || (i > 0 && v <= b[i-1]) {
			return nil, errors.New("boolean dictionary not false before true")
		}
		values[i] = v == 1
	}
	return values, nil
}

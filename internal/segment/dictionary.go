package segment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
)

// Dictionary maps between dictionary ids and column values. Immutable
// dictionaries are value-sorted, so ascending dict ids correspond to
// ascending values and range predicates reduce to dict-id ranges.
type Dictionary interface {
	Type() DataType
	Len() int
	// Value returns the value for a dict id.
	Value(id int) any
	// IndexOf returns the dict id of a canonical value.
	IndexOf(v any) (int, bool)
	// Sorted reports whether ascending ids correspond to ascending values.
	Sorted() bool
	// Range returns the dict-id half-open interval [lo, hi) of values
	// within the given bounds. nil means unbounded on that side. Only
	// valid for sorted dictionaries.
	Range(lower, upper any, lowerInclusive, upperInclusive bool) (int, int)
	// Min and Max return the smallest and largest values.
	Min() any
	Max() any
}

type int64Dictionary struct{ values []int64 }

func (d *int64Dictionary) Type() DataType { return TypeLong }
func (d *int64Dictionary) Len() int       { return len(d.values) }
func (d *int64Dictionary) Value(id int) any {
	return d.values[id]
}
func (d *int64Dictionary) Sorted() bool { return true }
func (d *int64Dictionary) Min() any     { return d.values[0] }
func (d *int64Dictionary) Max() any     { return d.values[len(d.values)-1] }
func (d *int64Dictionary) IndexOf(v any) (int, bool) {
	x, ok := v.(int64)
	if !ok {
		return 0, false
	}
	i := sort.Search(len(d.values), func(i int) bool { return d.values[i] >= x })
	if i < len(d.values) && d.values[i] == x {
		return i, true
	}
	return 0, false
}
func (d *int64Dictionary) Range(lower, upper any, loIncl, hiIncl bool) (int, int) {
	lo := 0
	if lower != nil {
		x := lower.(int64)
		if loIncl {
			lo = sort.Search(len(d.values), func(i int) bool { return d.values[i] >= x })
		} else {
			lo = sort.Search(len(d.values), func(i int) bool { return d.values[i] > x })
		}
	}
	hi := len(d.values)
	if upper != nil {
		x := upper.(int64)
		if hiIncl {
			hi = sort.Search(len(d.values), func(i int) bool { return d.values[i] > x })
		} else {
			hi = sort.Search(len(d.values), func(i int) bool { return d.values[i] >= x })
		}
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

type float64Dictionary struct{ values []float64 }

func (d *float64Dictionary) Type() DataType { return TypeDouble }
func (d *float64Dictionary) Len() int       { return len(d.values) }
func (d *float64Dictionary) Value(id int) any {
	return d.values[id]
}
func (d *float64Dictionary) Sorted() bool { return true }
func (d *float64Dictionary) Min() any     { return d.values[0] }
func (d *float64Dictionary) Max() any     { return d.values[len(d.values)-1] }
func (d *float64Dictionary) IndexOf(v any) (int, bool) {
	x, ok := v.(float64)
	if !ok {
		return 0, false
	}
	i := sort.Search(len(d.values), func(i int) bool { return d.values[i] >= x })
	if i < len(d.values) && d.values[i] == x {
		return i, true
	}
	return 0, false
}
func (d *float64Dictionary) Range(lower, upper any, loIncl, hiIncl bool) (int, int) {
	lo := 0
	if lower != nil {
		x := lower.(float64)
		if loIncl {
			lo = sort.Search(len(d.values), func(i int) bool { return d.values[i] >= x })
		} else {
			lo = sort.Search(len(d.values), func(i int) bool { return d.values[i] > x })
		}
	}
	hi := len(d.values)
	if upper != nil {
		x := upper.(float64)
		if hiIncl {
			hi = sort.Search(len(d.values), func(i int) bool { return d.values[i] > x })
		} else {
			hi = sort.Search(len(d.values), func(i int) bool { return d.values[i] >= x })
		}
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

type stringDictionary struct{ values []string }

func (d *stringDictionary) Type() DataType { return TypeString }
func (d *stringDictionary) Len() int       { return len(d.values) }
func (d *stringDictionary) Value(id int) any {
	return d.values[id]
}
func (d *stringDictionary) Sorted() bool { return true }
func (d *stringDictionary) Min() any     { return d.values[0] }
func (d *stringDictionary) Max() any     { return d.values[len(d.values)-1] }
func (d *stringDictionary) IndexOf(v any) (int, bool) {
	x, ok := v.(string)
	if !ok {
		return 0, false
	}
	i := sort.Search(len(d.values), func(i int) bool { return d.values[i] >= x })
	if i < len(d.values) && d.values[i] == x {
		return i, true
	}
	return 0, false
}
func (d *stringDictionary) Range(lower, upper any, loIncl, hiIncl bool) (int, int) {
	lo := 0
	if lower != nil {
		x := lower.(string)
		if loIncl {
			lo = sort.Search(len(d.values), func(i int) bool { return d.values[i] >= x })
		} else {
			lo = sort.Search(len(d.values), func(i int) bool { return d.values[i] > x })
		}
	}
	hi := len(d.values)
	if upper != nil {
		x := upper.(string)
		if hiIncl {
			hi = sort.Search(len(d.values), func(i int) bool { return d.values[i] > x })
		} else {
			hi = sort.Search(len(d.values), func(i int) bool { return d.values[i] >= x })
		}
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

type boolDictionary struct{ values []bool } // sorted: false before true

func (d *boolDictionary) Type() DataType { return TypeBoolean }
func (d *boolDictionary) Len() int       { return len(d.values) }
func (d *boolDictionary) Value(id int) any {
	return d.values[id]
}
func (d *boolDictionary) Sorted() bool { return true }
func (d *boolDictionary) Min() any     { return d.values[0] }
func (d *boolDictionary) Max() any     { return d.values[len(d.values)-1] }
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

// writeDictionary serializes a dictionary.
func writeDictionary(w io.Writer, d Dictionary) error {
	if err := binary.Write(w, binary.LittleEndian, uint8(d.Type())); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(d.Len())); err != nil {
		return err
	}
	switch dd := d.(type) {
	case *int64Dictionary:
		return binary.Write(w, binary.LittleEndian, dd.values)
	case *float64Dictionary:
		return binary.Write(w, binary.LittleEndian, dd.values)
	case *boolDictionary:
		bs := make([]uint8, len(dd.values))
		for i, b := range dd.values {
			if b {
				bs[i] = 1
			}
		}
		return binary.Write(w, binary.LittleEndian, bs)
	case *stringDictionary:
		for _, s := range dd.values {
			if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
				return err
			}
			if _, err := io.WriteString(w, s); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("segment: unknown dictionary type %T", d)
}

// readDictionary deserializes a dictionary written by writeDictionary.
// Element counts are validated against the remaining payload so corrupted
// blobs fail cleanly instead of over-allocating.
func readDictionary(r *bytes.Reader) (Dictionary, error) {
	var t uint8
	if err := binary.Read(r, binary.LittleEndian, &t); err != nil {
		return nil, err
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > math.MaxInt32 || int64(n) > int64(r.Len()) {
		return nil, fmt.Errorf("segment: dictionary too large: %d", n)
	}
	switch DataType(t) {
	case TypeInt, TypeLong:
		if uint64(n)*8 > uint64(r.Len()) {
			return nil, fmt.Errorf("segment: corrupt dictionary length %d", n)
		}
		values := make([]int64, n)
		if err := binary.Read(r, binary.LittleEndian, values); err != nil {
			return nil, err
		}
		return &int64Dictionary{values}, nil
	case TypeFloat, TypeDouble:
		if uint64(n)*8 > uint64(r.Len()) {
			return nil, fmt.Errorf("segment: corrupt dictionary length %d", n)
		}
		values := make([]float64, n)
		if err := binary.Read(r, binary.LittleEndian, values); err != nil {
			return nil, err
		}
		return &float64Dictionary{values}, nil
	case TypeBoolean:
		bs := make([]uint8, n)
		if err := binary.Read(r, binary.LittleEndian, bs); err != nil {
			return nil, err
		}
		values := make([]bool, n)
		for i, b := range bs {
			values[i] = b != 0
		}
		return &boolDictionary{values}, nil
	case TypeString:
		values := make([]string, n)
		for i := range values {
			var l uint32
			if err := binary.Read(r, binary.LittleEndian, &l); err != nil {
				return nil, err
			}
			if int64(l) > int64(r.Len()) {
				return nil, fmt.Errorf("segment: corrupt dictionary string length %d", l)
			}
			buf := make([]byte, l)
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, err
			}
			values[i] = string(buf)
		}
		return &stringDictionary{values}, nil
	}
	return nil, fmt.Errorf("segment: unknown dictionary type byte %d", t)
}

package bitmap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"pinot/internal/view"
)

// The serialized form of an inverted index — one bitmap per dictionary id —
// is laid out so that a reader holding it at an 8-byte-aligned address can
// serve every container from the bytes themselves:
//
//	u32 n, u32 k, u32 kw, u32 0   bitmaps, containers, bitset containers
//	u64[1024] × kw                bitset payloads, in container order
//	u32[n]                        containers up to and including bitmap i
//	u16[k]                        container keys
//	u16[k]                        container cardinalities minus one
//	u16[...]                      array payloads, in container order
//
// A container of more than arrayToBitmapThreshold values is a bitset, any
// other an array, so the form of a set of values is unique and a container
// carries no type tag.
const postingsHeader = 16

// MarshalPostings returns the serialized form of bms.
func MarshalPostings(bms []Bitmap) []byte {
	k, kw, arrays := 0, 0, 0
	for i := range bms {
		for _, c := range bms[i].containers {
			k++
			if n := c.cardinality(); n > arrayToBitmapThreshold {
				kw++
			} else {
				arrays += n
			}
		}
	}
	le := binary.LittleEndian
	dst := make([]byte, 0, postingsHeader+kw*bitmapWords*8+len(bms)*4+k*4+arrays*2)
	dst = le.AppendUint32(dst, uint32(len(bms)))
	dst = le.AppendUint32(dst, uint32(k))
	dst = le.AppendUint32(dst, uint32(kw))
	dst = le.AppendUint32(dst, 0)
	each := func(fn func(c *container)) {
		for i := range bms {
			for _, c := range bms[i].containers {
				fn(c)
			}
		}
	}
	each(func(c *container) {
		if c.cardinality() > arrayToBitmapThreshold {
			dst = append(dst, view.Bytes(c.words)...)
		}
	})
	end := 0
	for i := range bms {
		end += len(bms[i].containers)
		dst = le.AppendUint32(dst, uint32(end))
	}
	each(func(c *container) { dst = le.AppendUint16(dst, c.key) })
	each(func(c *container) { dst = le.AppendUint16(dst, uint16(c.cardinality()-1)) })
	each(func(c *container) {
		switch {
		case c.words == nil:
			dst = append(dst, view.Bytes(c.array)...)
		case c.card <= arrayToBitmapThreshold:
			// A bitset that removals thinned out but did not yet convert.
			arr := *c
			arr.toArray()
			dst = append(dst, view.Bytes(arr.array)...)
		}
	})
	return dst
}

// ViewPostings returns the bitmaps serialized in b. Their containers alias b
// wherever it is aligned for them (view.Of), so b must stay unchanged for as
// long as the bitmaps are in use and the bitmaps are read-only: a write to one
// panics. Everything a later read depends on is checked here — lengths
// against the bytes present before anything is allocated, keys and array
// values strictly ascending, every cardinality equal to what the payload
// holds — so a hostile b yields an error, never a panic later.
func ViewPostings(b []byte) ([]Bitmap, error) {
	if len(b) < postingsHeader {
		return nil, errors.New("bitmap: postings shorter than their header")
	}
	le := binary.LittleEndian
	n, k, kw := uint64(le.Uint32(b)), uint64(le.Uint32(b[4:])), uint64(le.Uint32(b[8:]))
	fixed := postingsHeader + kw*bitmapWords*8 + n*4 + k*4
	if kw > k || fixed > uint64(len(b)) || le.Uint32(b[12:]) != 0 {
		return nil, fmt.Errorf("bitmap: postings of %d bytes cannot hold %d bitmaps of %d containers", len(b), n, k)
	}
	off := postingsHeader + int(kw)*bitmapWords*8
	words := view.Of[uint64](b[postingsHeader:off])
	ends := view.Of[uint32](b[off : off+int(n)*4])
	off += int(n) * 4
	keys := view.Of[uint16](b[off : off+int(k)*2])
	cards := view.Of[uint16](b[off+int(k)*2 : off+int(k)*4])
	if len(b)%2 != 0 {
		return nil, errors.New("bitmap: postings end in half a value")
	}
	arrays := view.Of[uint16](b[off+int(k)*4:])

	out := make([]Bitmap, n)
	slab := make([]container, k)
	ptrs := make([]*container, k)
	first := 0
	for i := range out {
		end := int(ends[i])
		if end < first || end > int(k) {
			return nil, fmt.Errorf("bitmap: postings of bitmap %d end at container %d", i, end)
		}
		for j := first; j < end; j++ {
			c := &slab[j]
			c.key = keys[j]
			if j > first && c.key <= keys[j-1] {
				return nil, fmt.Errorf("bitmap: container keys of bitmap %d not ascending", i)
			}
			card := int(cards[j]) + 1
			if card > arrayToBitmapThreshold {
				if len(words) < bitmapWords {
					return nil, errors.New("bitmap: more bitset containers than payloads")
				}
				c.words, words = words[:bitmapWords:bitmapWords], words[bitmapWords:]
				c.card = card
				held := 0
				for _, w := range c.words {
					held += bits.OnesCount64(w)
				}
				if held != card {
					return nil, fmt.Errorf("bitmap: bitset container holds %d values, declares %d", held, card)
				}
			} else {
				if len(arrays) < card {
					return nil, errors.New("bitmap: array container beyond the end of the postings")
				}
				c.array, arrays = arrays[:card:card], arrays[card:]
				for x := 1; x < card; x++ {
					if c.array[x] <= c.array[x-1] {
						return nil, fmt.Errorf("bitmap: array container of bitmap %d not ascending", i)
					}
				}
			}
			ptrs[j] = c
		}
		out[i] = Bitmap{containers: ptrs[first:end:end], view: true}
		first = end
	}
	if first != int(k) || len(words) != 0 || len(arrays) != 0 {
		return nil, errors.New("bitmap: postings hold bytes no bitmap owns")
	}
	return out, nil
}

package segment

import (
	"fmt"
	"math/bits"
)

// packedInts is a fixed-bit-width packed integer array, the storage layout
// for dictionary-id forward indexes. Width is chosen from the column
// cardinality so a column with 1000 distinct values costs 10 bits per row.
type packedInts struct {
	width uint8 // bits per value, 1..32
	n     int
	words []uint64
}

// bitsNeeded returns the number of bits required to represent values in
// [0, maxValue].
func bitsNeeded(maxValue int) uint8 {
	if maxValue <= 0 {
		return 1
	}
	return uint8(bits.Len64(uint64(maxValue)))
}

func newPackedInts(n int, width uint8) *packedInts {
	if width == 0 || width > 32 {
		panic(fmt.Sprintf("segment: invalid packed width %d", width))
	}
	words := make([]uint64, packedWords(n, width))
	return &packedInts{width: width, n: n, words: words}
}

func (p *packedInts) set(i int, v uint32) {
	bitPos := i * int(p.width)
	w, off := bitPos>>6, uint(bitPos&63)
	p.words[w] |= uint64(v) << off
	if spill := off + uint(p.width); spill > 64 {
		p.words[w+1] |= uint64(v) >> (64 - off)
	}
}

func (p *packedInts) get(i int) uint32 {
	bitPos := i * int(p.width)
	w, off := bitPos>>6, uint(bitPos&63)
	v := p.words[w] >> off
	if spill := off + uint(p.width); spill > 64 {
		v |= p.words[w+1] << (64 - off)
	}
	return uint32(v & (1<<p.width - 1))
}

// getBlock unpacks the len(dst) values starting at position start into dst.
// Unlike per-value get, the cursor walks the word array sequentially, so the
// word index, shift, and spill bookkeeping are amortized across the block.
// Byte-aligned widths take a direct-extraction path; widths that divide 64
// never spill a word boundary and skip the spill checks entirely.
func (p *packedInts) getBlock(start int, dst []uint32) {
	if len(dst) == 0 {
		return
	}
	switch p.width {
	case 8:
		for i := range dst {
			pos := start + i
			dst[i] = uint32(p.words[pos>>3]>>((pos&7)<<3)) & 0xFF
		}
		return
	case 16:
		for i := range dst {
			pos := start + i
			dst[i] = uint32(p.words[pos>>2]>>((pos&3)<<4)) & 0xFFFF
		}
		return
	case 32:
		for i := range dst {
			pos := start + i
			dst[i] = uint32(p.words[pos>>1] >> ((pos & 1) << 5))
		}
		return
	}
	w := uint(p.width)
	mask := uint64(1)<<w - 1
	bitPos := uint64(start) * uint64(w)
	wi := int(bitPos >> 6)
	off := uint(bitPos & 63)
	if 64%w == 0 {
		// Width divides the word size: no value spans a boundary.
		word := p.words[wi] >> off
		rem := (64 - off) / w
		for i := range dst {
			if rem == 0 {
				wi++
				word = p.words[wi]
				rem = 64 / w
			}
			dst[i] = uint32(word & mask)
			word >>= w
			rem--
		}
		return
	}
	word := p.words[wi] >> off
	avail := 64 - off
	for i := range dst {
		if avail >= w {
			dst[i] = uint32(word & mask)
			word >>= w
			avail -= w
			continue
		}
		v := word
		wi++
		next := p.words[wi]
		v |= next << avail
		dst[i] = uint32(v & mask)
		word = next >> (w - avail)
		avail = 64 - (w - avail)
	}
}

// The packed-space range test. A window is 64 bits read from the value
// array at a field boundary; it holds k = ⌊64/w⌋ whole fields, which are
// tested at once by SWAR (SIMD within a register) arithmetic: the top bit of
// each field is set before a subtraction and accounted for after it, so a
// borrow never crosses from one field into the next. The contract that makes
// this sound: only whole fields are tested (a window's bits above its k
// fields, and fields past the n asked for, are masked off), and a range is
// clipped to the width's id space [0, 2^w) before it is replicated across
// the fields — a lo of 2^w or more would spill into the neighbouring field.
// A range covering all 2^w ids needs no arithmetic and cannot be replicated
// (its span has w+1 bits), so it is answered directly.

// swarWidth is what the test needs to know about a width, computed once.
type swarWidth struct {
	k     int    // whole fields per window
	ones  uint64 // the low bit of each of the k fields: v*ones replicates v
	top   uint64 // the top bit of each of the k fields
	recip uint64 // ⌈2^16/w⌉: bit b is in field b*recip>>16, for b < 64
}

var swarWidths = func() (t [33]swarWidth) {
	for w := 1; w <= 32; w++ {
		k := 64 / w
		var ones uint64
		for f := 0; f < k; f++ {
			ones |= 1 << (f * w)
		}
		t[w] = swarWidth{k: k, ones: ones, top: ones << (w - 1), recip: (1<<16 + uint64(w) - 1) / uint64(w)}
	}
	return t
}()

// swarRange is a clipped range replicated across a window's fields, in the
// pieces its test takes.
type swarRange struct {
	loLow   uint64 // lo without the top bits
	loFlip  uint64 // the top bits of ^lo
	span    uint64
	spanLow uint64 // span without the top bits
}

func newSWARRange(lo, span uint64, c *swarWidth) swarRange {
	lo, span = lo*c.ones, span*c.ones
	return swarRange{lo &^ c.top, ^lo & c.top, span, span &^ c.top}
}

// test returns the top bit of each field of x whose value lies in the range:
// d = x - lo per field, then the borrow out of each field's d - span, which is
// set exactly when d < span.
func (r *swarRange) test(x, top uint64) uint64 {
	d := ((x | top) - r.loLow) ^ (x&top ^ r.loFlip)
	e := (d | top) - r.spanLow
	return (^d&r.span | ^(d^r.span)&^e) & top
}

// bitWords is the number of 64-bit words one bit per value of n takes.
func bitWords(n int) int { return (n + 63) >> 6 }

// setFirstBits sets bits [0, n) of dst and clears the rest of its words.
func setFirstBits(dst []uint64, n int) {
	dst = dst[:bitWords(n)]
	for i := range dst {
		dst[i] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		dst[len(dst)-1] = 1<<r - 1
	}
}

// matchRanges sets bit i of dst when value start+i lies in one of ranges, for
// i < n, and clears every other bit of dst[:bitWords(n)]. Ranges are tested
// two at a time, as many as a not-equal has.
func (p *packedInts) matchRanges(start, n int, ranges []IDRange, dst []uint64) {
	clear(dst[:bitWords(n)])
	c := &swarWidths[p.width]
	ids := uint64(1) << p.width
	var batch [2]swarRange
	for len(ranges) > 0 {
		k := 0
		for ; len(ranges) > 0 && k < len(batch); ranges = ranges[1:] {
			lo := uint64(ranges[0].Lo)
			hi := min(lo+uint64(ranges[0].Span), ids)
			switch {
			case lo >= hi:
			case lo == 0 && hi == ids:
				setFirstBits(dst, n)
				return
			default:
				batch[k] = newSWARRange(lo, hi-lo, c)
				k++
			}
		}
		if k > 0 {
			p.matchWindows(start, n, batch[:k], c, dst)
		}
	}
}

// matchWindows ORs into dst the matches of values [start, start+n) against
// clipped, replicated ranges, one window at a time.
func (p *packedInts) matchWindows(start, n int, rs []swarRange, c *swarWidth, dst []uint64) {
	words, w, k, top := p.words, uint(p.width), c.k, c.top
	first, more := rs[0], rs[1:]
	bitPos := uint(start) * w
	for i := 0; i < n; i += k {
		wi, off := bitPos>>6, bitPos&63
		x := words[wi] >> off
		if wi+1 < uint(len(words)) {
			x |= words[wi+1] << (64 - off) // nothing when off is 0
		}
		m := first.test(x, top)
		for j := range more {
			m |= more[j].test(x, top)
		}
		if left := n - i; left < k {
			m &= 1<<(uint(left)*w) - 1
		}
		for ; m != 0; m &= m - 1 {
			j := i + int(uint64(bits.TrailingZeros64(m))*c.recip>>16)
			dst[j>>6] |= 1 << (j & 63)
		}
		bitPos += uint(k) * w
	}
}

// packedWords is the number of 64-bit words n values of a width occupy.
func packedWords(n int, width uint8) int { return (n*int(width) + 63) / 64 }

// viewPackedInts is a packed array over words, which a loaded segment passes
// as a view of its buffer. How many values it holds is for setLen to say.
func viewPackedInts(width uint64, words []uint64) (*packedInts, error) {
	if width == 0 || width > 32 {
		return nil, fmt.Errorf("corrupt packed width %d", width)
	}
	return &packedInts{width: uint8(width), words: words}, nil
}

// setLen declares the array to hold n values, which must be what its words
// hold.
func (p *packedInts) setLen(n int) error {
	if len(p.words) != packedWords(n, p.width) {
		return fmt.Errorf("%d values of %d bits in %d words", n, p.width, len(p.words))
	}
	p.n = n
	return nil
}

// search returns the first position in [from, p.n) whose value is at least
// v, p.n if there is none. The values must be non-decreasing.
func (p *packedInts) search(from int, v uint32) int {
	lo, hi := from, p.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.get(mid) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// checkIDs reads every value once: an id at or beyond the cardinality is an
// error, and sorted reports whether the values never decrease.
func (p *packedInts) checkIDs(cardinality int) (sorted bool, err error) {
	var buf [1024]uint32
	sorted = true
	prev := uint32(0)
	for start := 0; start < p.n; start += len(buf) {
		block := buf[:min(len(buf), p.n-start)]
		p.getBlock(start, block)
		for i, id := range block {
			if int(id) >= cardinality {
				return false, fmt.Errorf("entry %d has dict id %d beyond cardinality %d", start+i, id, cardinality)
			}
			if id < prev {
				sorted = false
			}
			prev = id
		}
	}
	return sorted, nil
}

// SVForwardIndex is a single-value dictionary-id forward index.
type SVForwardIndex struct {
	packed *packedInts
}

// Get returns the dict id at a document position.
func (f *SVForwardIndex) Get(doc int) int { return int(f.packed.get(doc)) }

// GetBlock fills dst with the dict ids at positions [start, start+len(dst)),
// amortizing the bit arithmetic of Get across the block.
func (f *SVForwardIndex) GetBlock(start int, dst []uint32) { f.packed.getBlock(start, dst) }

// NumDocs returns the number of documents.
func (f *SVForwardIndex) NumDocs() int { return f.packed.n }

// BitsPerValue returns the packed width, exposed for metadata/stats.
func (f *SVForwardIndex) BitsPerValue() int { return int(f.packed.width) }

// MVForwardIndex is a multi-value dictionary-id forward index: an offsets
// array into a packed value stream.
type MVForwardIndex struct {
	offsets []uint32 // len = numDocs+1
	packed  *packedInts
}

// Get appends the dict ids of a document to buf and returns it.
func (f *MVForwardIndex) Get(doc int, buf []int) []int {
	start, end := f.offsets[doc], f.offsets[doc+1]
	for i := start; i < end; i++ {
		buf = append(buf, int(f.packed.get(int(i))))
	}
	return buf
}

// NumDocs returns the number of documents.
func (f *MVForwardIndex) NumDocs() int { return len(f.offsets) - 1 }

// validate checks offsets are monotonic, end at the packed stream length,
// and that every packed id is within the dictionary.
func (f *MVForwardIndex) validate(cardinality int) error {
	for i := 1; i < len(f.offsets); i++ {
		if f.offsets[i] < f.offsets[i-1] {
			return fmt.Errorf("MV offsets not monotonic at %d", i)
		}
	}
	if int(f.offsets[len(f.offsets)-1]) != f.packed.n {
		return fmt.Errorf("MV offsets end at %d, packed stream has %d", f.offsets[len(f.offsets)-1], f.packed.n)
	}
	_, err := f.packed.checkIDs(cardinality)
	return err
}

// MetricColumn stores raw (non-dictionary) metric values for fast
// aggregation scans.
type MetricColumn interface {
	Type() DataType
	NumDocs() int
	Long(doc int) int64
	Double(doc int) float64
	// Longs and Doubles fill dst with the values at the given ascending
	// doc positions, the block-at-a-time counterparts of Long and Double.
	Longs(docs []int, dst []int64)
	Doubles(docs []int, dst []float64)
	// LongRange and DoubleRange fill dst with the values of documents
	// [start, start+len(dst)).
	LongRange(start int, dst []int64)
	DoubleRange(start int, dst []float64)
	MinLong() int64
	MaxLong() int64
	MinDouble() float64
	MaxDouble() float64
}

// docsContiguous reports whether an ascending, duplicate-free doc list is a
// gap-free run, enabling sequential block reads.
func docsContiguous(docs []int) bool {
	return len(docs) > 0 && docs[len(docs)-1]-docs[0] == len(docs)-1
}

type longMetricColumn struct {
	values   []int64
	min, max int64
}

func newLongMetricColumn(values []int64) *longMetricColumn {
	c := &longMetricColumn{values: values}
	if len(values) > 0 {
		c.min, c.max = values[0], values[0]
		for _, v := range values[1:] {
			if v < c.min {
				c.min = v
			}
			if v > c.max {
				c.max = v
			}
		}
	}
	return c
}

func (c *longMetricColumn) Type() DataType         { return TypeLong }
func (c *longMetricColumn) NumDocs() int           { return len(c.values) }
func (c *longMetricColumn) Long(doc int) int64     { return c.values[doc] }
func (c *longMetricColumn) Double(doc int) float64 { return float64(c.values[doc]) }
func (c *longMetricColumn) Longs(docs []int, dst []int64) {
	if docsContiguous(docs) {
		c.LongRange(docs[0], dst[:len(docs)])
		return
	}
	for i, d := range docs {
		dst[i] = c.values[d]
	}
}
func (c *longMetricColumn) Doubles(docs []int, dst []float64) {
	for i, d := range docs {
		dst[i] = float64(c.values[d])
	}
}
func (c *longMetricColumn) LongRange(start int, dst []int64) {
	copy(dst, c.values[start:start+len(dst)])
}
func (c *longMetricColumn) DoubleRange(start int, dst []float64) {
	for i, v := range c.values[start : start+len(dst)] {
		dst[i] = float64(v)
	}
}
func (c *longMetricColumn) MinLong() int64     { return c.min }
func (c *longMetricColumn) MaxLong() int64     { return c.max }
func (c *longMetricColumn) MinDouble() float64 { return float64(c.min) }
func (c *longMetricColumn) MaxDouble() float64 { return float64(c.max) }

type doubleMetricColumn struct {
	values   []float64
	min, max float64
}

func newDoubleMetricColumn(values []float64) *doubleMetricColumn {
	c := &doubleMetricColumn{values: values}
	if len(values) > 0 {
		c.min, c.max = values[0], values[0]
		for _, v := range values[1:] {
			if v < c.min {
				c.min = v
			}
			if v > c.max {
				c.max = v
			}
		}
	}
	return c
}

func (c *doubleMetricColumn) Type() DataType         { return TypeDouble }
func (c *doubleMetricColumn) NumDocs() int           { return len(c.values) }
func (c *doubleMetricColumn) Long(doc int) int64     { return int64(c.values[doc]) }
func (c *doubleMetricColumn) Double(doc int) float64 { return c.values[doc] }
func (c *doubleMetricColumn) Longs(docs []int, dst []int64) {
	for i, d := range docs {
		dst[i] = int64(c.values[d])
	}
}
func (c *doubleMetricColumn) Doubles(docs []int, dst []float64) {
	if docsContiguous(docs) {
		c.DoubleRange(docs[0], dst[:len(docs)])
		return
	}
	for i, d := range docs {
		dst[i] = c.values[d]
	}
}
func (c *doubleMetricColumn) LongRange(start int, dst []int64) {
	for i, v := range c.values[start : start+len(dst)] {
		dst[i] = int64(v)
	}
}
func (c *doubleMetricColumn) DoubleRange(start int, dst []float64) {
	copy(dst, c.values[start:start+len(dst)])
}
func (c *doubleMetricColumn) MinLong() int64     { return int64(c.min) }
func (c *doubleMetricColumn) MaxLong() int64     { return int64(c.max) }
func (c *doubleMetricColumn) MinDouble() float64 { return c.min }
func (c *doubleMetricColumn) MaxDouble() float64 { return c.max }

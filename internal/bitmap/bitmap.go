// Package bitmap implements roaring bitmaps, the compressed bitmap format
// used by Pinot (and Druid) for inverted indexes. A bitmap is partitioned by
// the high 16 bits of each value into containers; dense containers are stored
// as 1024-word bitsets and sparse containers as sorted uint16 arrays, with
// automatic conversion at the conventional 4096-element threshold.
package bitmap

import (
	"fmt"
	"math/bits"
	"sort"
)

// arrayToBitmapThreshold is the container cardinality above which an array
// container is converted to a bitset container (and below which a bitset
// container is converted back). 4096 uint16s occupy exactly as much space as
// a full 8 KiB bitset, so this is the break-even point.
const arrayToBitmapThreshold = 4096

const bitmapWords = 1024 // 1024 * 64 = 65536 bits per container

// container holds one 2^16-value chunk of the bitmap. Exactly one of array
// or words is non-nil.
type container struct {
	key   uint16   // high 16 bits of the values in this container
	array []uint16 // sorted low 16 bits, when sparse
	words []uint64 // 1024-word bitset, when dense
	card  int      // cardinality when words != nil (arrays use len)
}

func (c *container) cardinality() int {
	if c.words != nil {
		return c.card
	}
	return len(c.array)
}

func (c *container) contains(low uint16) bool {
	if c.words != nil {
		return c.words[low>>6]&(1<<(low&63)) != 0
	}
	i := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= low })
	return i < len(c.array) && c.array[i] == low
}

func (c *container) add(low uint16) bool {
	if c.words != nil {
		w, b := low>>6, uint64(1)<<(low&63)
		if c.words[w]&b != 0 {
			return false
		}
		c.words[w] |= b
		c.card++
		return true
	}
	i := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= low })
	if i < len(c.array) && c.array[i] == low {
		return false
	}
	c.array = append(c.array, 0)
	copy(c.array[i+1:], c.array[i:])
	c.array[i] = low
	if len(c.array) > arrayToBitmapThreshold {
		c.toBitset()
	}
	return true
}

func (c *container) remove(low uint16) bool {
	if c.words != nil {
		w, b := low>>6, uint64(1)<<(low&63)
		if c.words[w]&b == 0 {
			return false
		}
		c.words[w] &^= b
		c.card--
		if c.card <= arrayToBitmapThreshold/2 {
			c.toArray()
		}
		return true
	}
	i := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= low })
	if i >= len(c.array) || c.array[i] != low {
		return false
	}
	c.array = append(c.array[:i], c.array[i+1:]...)
	return true
}

func (c *container) toBitset() {
	words := make([]uint64, bitmapWords)
	for _, v := range c.array {
		words[v>>6] |= 1 << (v & 63)
	}
	c.card = len(c.array)
	c.array = nil
	c.words = words
}

func (c *container) toArray() {
	arr := make([]uint16, 0, c.card)
	for w, word := range c.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			arr = append(arr, uint16(w<<6+b))
			word &= word - 1
		}
	}
	c.array = arr
	c.words = nil
	c.card = 0
}

func (c *container) clone() *container {
	out := &container{key: c.key, card: c.card}
	if c.words != nil {
		out.words = append([]uint64(nil), c.words...)
	} else {
		out.array = append([]uint16(nil), c.array...)
	}
	return out
}

// Bitmap is a compressed set of uint32 values. The zero value is an empty
// bitmap ready to use. Bitmap is not safe for concurrent mutation.
type Bitmap struct {
	containers []*container // sorted by key
	// view marks a bitmap of ViewPostings: its containers are the serialized
	// bytes themselves, shared with whoever else holds them, so it is never
	// written. Every operation that returns a bitmap returns a fresh one.
	view bool
}

// mutable panics on a write to a view: only a bug can reach it, and the
// alternative is silently editing a segment under every replica serving it.
func (b *Bitmap) mutable() {
	if b.view {
		panic("bitmap: write to a read-only view of serialized postings")
	}
}

// New returns an empty bitmap.
func New() *Bitmap { return &Bitmap{} }

// Of returns a bitmap containing the given values.
func Of(values ...uint32) *Bitmap {
	b := New()
	for _, v := range values {
		b.Add(v)
	}
	return b
}

// FromRange returns a bitmap containing [start, end).
func FromRange(start, end uint32) *Bitmap {
	b := New()
	b.AddRange(start, end)
	return b
}

func (b *Bitmap) containerIndex(key uint16) (int, bool) {
	i := sort.Search(len(b.containers), func(i int) bool { return b.containers[i].key >= key })
	return i, i < len(b.containers) && b.containers[i].key == key
}

func (b *Bitmap) containerAt(key uint16) *container {
	if i, ok := b.containerIndex(key); ok {
		return b.containers[i]
	}
	return nil
}

func (b *Bitmap) insertContainer(i int, c *container) {
	b.containers = append(b.containers, nil)
	copy(b.containers[i+1:], b.containers[i:])
	b.containers[i] = c
}

// Add inserts v, reporting whether it was absent.
func (b *Bitmap) Add(v uint32) bool {
	b.mutable()
	key, low := uint16(v>>16), uint16(v)
	i, ok := b.containerIndex(key)
	if !ok {
		b.insertContainer(i, &container{key: key, array: []uint16{low}})
		return true
	}
	return b.containers[i].add(low)
}

// AddMany inserts values, which must be sorted ascending. Each run of values
// sharing a container is added at once: the container is located once per
// run, and a run lying beyond everything an array container holds — the
// shape of draining an ascending iterator — is appended without searching.
func (b *Bitmap) AddMany(sorted []uint32) {
	b.mutable()
	for len(sorted) > 0 {
		key := uint16(sorted[0] >> 16)
		run := 1
		for run < len(sorted) && uint16(sorted[run]>>16) == key {
			run++
		}
		i, ok := b.containerIndex(key)
		if !ok {
			b.insertContainer(i, &container{key: key})
		}
		b.containers[i].addMany(sorted[:run])
		sorted = sorted[run:]
	}
}

// addMany adds the low halves of an ascending run of this container's values.
func (c *container) addMany(run []uint32) {
	if c.words == nil && len(c.array)+len(run) <= arrayToBitmapThreshold &&
		(len(c.array) == 0 || c.array[len(c.array)-1] < uint16(run[0])) {
		for i, v := range run {
			if i == 0 || v != run[i-1] {
				c.array = append(c.array, uint16(v))
			}
		}
		return
	}
	for _, v := range run {
		c.add(uint16(v))
	}
}

// AddRange inserts every value in [start, end).
func (b *Bitmap) AddRange(start, end uint32) {
	b.mutable()
	for v := uint64(start); v < uint64(end); {
		key := uint16(v >> 16)
		chunkEnd := (v | 0xFFFF) + 1
		if chunkEnd > uint64(end) {
			chunkEnd = uint64(end)
		}
		i, ok := b.containerIndex(key)
		var c *container
		if !ok {
			c = &container{key: key}
			if chunkEnd-v > arrayToBitmapThreshold {
				c.words = make([]uint64, bitmapWords)
			}
			b.insertContainer(i, c)
		} else {
			c = b.containers[i]
			if c.words == nil && uint64(len(c.array))+(chunkEnd-v) > arrayToBitmapThreshold {
				c.toBitset()
			}
		}
		if c.words != nil {
			for x := v; x < chunkEnd; x++ {
				low := uint16(x)
				w, bit := low>>6, uint64(1)<<(low&63)
				if c.words[w]&bit == 0 {
					c.words[w] |= bit
					c.card++
				}
			}
		} else {
			for x := v; x < chunkEnd; x++ {
				c.add(uint16(x))
			}
		}
		v = chunkEnd
	}
}

// Remove deletes v, reporting whether it was present.
func (b *Bitmap) Remove(v uint32) bool {
	b.mutable()
	key, low := uint16(v>>16), uint16(v)
	i, ok := b.containerIndex(key)
	if !ok {
		return false
	}
	c := b.containers[i]
	removed := c.remove(low)
	if removed && c.cardinality() == 0 {
		b.containers = append(b.containers[:i], b.containers[i+1:]...)
	}
	return removed
}

// Contains reports whether v is in the bitmap.
func (b *Bitmap) Contains(v uint32) bool {
	c := b.containerAt(uint16(v >> 16))
	return c != nil && c.contains(uint16(v))
}

// Cardinality returns the number of values in the bitmap.
func (b *Bitmap) Cardinality() int {
	n := 0
	for _, c := range b.containers {
		n += c.cardinality()
	}
	return n
}

// IsEmpty reports whether the bitmap contains no values.
func (b *Bitmap) IsEmpty() bool { return len(b.containers) == 0 }

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	out := &Bitmap{containers: make([]*container, len(b.containers))}
	for i, c := range b.containers {
		out.containers[i] = c.clone()
	}
	return out
}

// Minimum returns the smallest value, or false if the bitmap is empty.
func (b *Bitmap) Minimum() (uint32, bool) {
	if len(b.containers) == 0 {
		return 0, false
	}
	c := b.containers[0]
	if c.words == nil {
		return uint32(c.key)<<16 | uint32(c.array[0]), true
	}
	for w, word := range c.words {
		if word != 0 {
			return uint32(c.key)<<16 | uint32(w<<6+bits.TrailingZeros64(word)), true
		}
	}
	return 0, false
}

// Maximum returns the largest value, or false if the bitmap is empty.
func (b *Bitmap) Maximum() (uint32, bool) {
	if len(b.containers) == 0 {
		return 0, false
	}
	c := b.containers[len(b.containers)-1]
	if c.words == nil {
		return uint32(c.key)<<16 | uint32(c.array[len(c.array)-1]), true
	}
	for w := bitmapWords - 1; w >= 0; w-- {
		if word := c.words[w]; word != 0 {
			return uint32(c.key)<<16 | uint32(w<<6+63-bits.LeadingZeros64(word)), true
		}
	}
	return 0, false
}

// ToArray returns all values in ascending order.
func (b *Bitmap) ToArray() []uint32 {
	out := make([]uint32, 0, b.Cardinality())
	it := b.Iterator()
	for it.HasNext() {
		out = append(out, it.Next())
	}
	return out
}

// Equals reports whether two bitmaps contain the same values.
func (b *Bitmap) Equals(o *Bitmap) bool {
	if b.Cardinality() != o.Cardinality() {
		return false
	}
	bi, oi := b.Iterator(), o.Iterator()
	for bi.HasNext() {
		if bi.Next() != oi.Next() {
			return false
		}
	}
	return true
}

// String renders a short human-readable summary.
func (b *Bitmap) String() string {
	return fmt.Sprintf("Bitmap{card=%d, containers=%d}", b.Cardinality(), len(b.containers))
}

// And returns the intersection of a and b as a new bitmap.
func And(a, b *Bitmap) *Bitmap {
	out := New()
	i, j := 0, 0
	for i < len(a.containers) && j < len(b.containers) {
		ca, cb := a.containers[i], b.containers[j]
		switch {
		case ca.key < cb.key:
			i++
		case ca.key > cb.key:
			j++
		default:
			if c := andContainers(ca, cb); c != nil {
				out.containers = append(out.containers, c)
			}
			i++
			j++
		}
	}
	return out
}

// Or returns the union of a and b as a new bitmap.
func Or(a, b *Bitmap) *Bitmap {
	out := New()
	i, j := 0, 0
	for i < len(a.containers) || j < len(b.containers) {
		switch {
		case j >= len(b.containers) || (i < len(a.containers) && a.containers[i].key < b.containers[j].key):
			out.containers = append(out.containers, a.containers[i].clone())
			i++
		case i >= len(a.containers) || b.containers[j].key < a.containers[i].key:
			out.containers = append(out.containers, b.containers[j].clone())
			j++
		default:
			out.containers = append(out.containers, orContainers(a.containers[i], b.containers[j]))
			i++
			j++
		}
	}
	return out
}

// AndNot returns a \ b (values in a that are not in b) as a new bitmap.
func AndNot(a, b *Bitmap) *Bitmap {
	out := New()
	j := 0
	for _, ca := range a.containers {
		for j < len(b.containers) && b.containers[j].key < ca.key {
			j++
		}
		if j < len(b.containers) && b.containers[j].key == ca.key {
			if c := andNotContainers(ca, b.containers[j]); c != nil {
				out.containers = append(out.containers, c)
			}
		} else {
			out.containers = append(out.containers, ca.clone())
		}
	}
	return out
}

// OrAll returns the union of all given bitmaps.
func OrAll(ms ...*Bitmap) *Bitmap {
	out := New()
	for _, m := range ms {
		if m != nil {
			out = Or(out, m)
		}
	}
	return out
}

// AndAll returns the intersection of all given bitmaps. With no arguments it
// returns an empty bitmap.
func AndAll(ms ...*Bitmap) *Bitmap {
	if len(ms) == 0 {
		return New()
	}
	if len(ms) == 1 {
		return ms[0].Clone()
	}
	out := And(ms[0], ms[1])
	for _, m := range ms[2:] {
		out = And(out, m)
	}
	return out
}

// FlipRange returns the complement of b within [start, end): values in the
// range are toggled, values outside are dropped. This implements NOT within
// a document-id domain.
func FlipRange(b *Bitmap, start, end uint32) *Bitmap {
	out := New()
	it := b.Iterator()
	next := start
	for it.HasNext() {
		v := it.Next()
		if v < start {
			continue
		}
		if v >= end {
			break
		}
		if v > next {
			out.AddRange(next, v)
		}
		next = v + 1
	}
	if next < end {
		out.AddRange(next, end)
	}
	return out
}

func (c *container) asBitsetWords() []uint64 {
	if c.words != nil {
		return c.words
	}
	words := make([]uint64, bitmapWords)
	for _, v := range c.array {
		words[v>>6] |= 1 << (v & 63)
	}
	return words
}

func containerFromWords(key uint16, words []uint64) *container {
	card := 0
	for _, w := range words {
		card += bits.OnesCount64(w)
	}
	if card == 0 {
		return nil
	}
	c := &container{key: key, words: words, card: card}
	if card <= arrayToBitmapThreshold {
		c.toArray()
	}
	return c
}

func andContainers(a, b *container) *container {
	if a.array != nil && b.array != nil {
		out := make([]uint16, 0, min(len(a.array), len(b.array)))
		i, j := 0, 0
		for i < len(a.array) && j < len(b.array) {
			switch {
			case a.array[i] < b.array[j]:
				i++
			case a.array[i] > b.array[j]:
				j++
			default:
				out = append(out, a.array[i])
				i++
				j++
			}
		}
		if len(out) == 0 {
			return nil
		}
		return &container{key: a.key, array: out}
	}
	if a.array != nil || b.array != nil {
		arr, bs := a, b
		if b.array != nil {
			arr, bs = b, a
		}
		out := make([]uint16, 0, len(arr.array))
		for _, v := range arr.array {
			if bs.words[v>>6]&(1<<(v&63)) != 0 {
				out = append(out, v)
			}
		}
		if len(out) == 0 {
			return nil
		}
		return &container{key: a.key, array: out}
	}
	words := make([]uint64, bitmapWords)
	for i := range words {
		words[i] = a.words[i] & b.words[i]
	}
	return containerFromWords(a.key, words)
}

func orContainers(a, b *container) *container {
	if a.array != nil && b.array != nil && len(a.array)+len(b.array) <= arrayToBitmapThreshold {
		out := make([]uint16, 0, len(a.array)+len(b.array))
		i, j := 0, 0
		for i < len(a.array) && j < len(b.array) {
			switch {
			case a.array[i] < b.array[j]:
				out = append(out, a.array[i])
				i++
			case a.array[i] > b.array[j]:
				out = append(out, b.array[j])
				j++
			default:
				out = append(out, a.array[i])
				i++
				j++
			}
		}
		out = append(out, a.array[i:]...)
		out = append(out, b.array[j:]...)
		return &container{key: a.key, array: out}
	}
	wa, wb := a.asBitsetWords(), b.asBitsetWords()
	words := make([]uint64, bitmapWords)
	for i := range words {
		words[i] = wa[i] | wb[i]
	}
	return containerFromWords(a.key, words)
}

func andNotContainers(a, b *container) *container {
	if a.array != nil {
		out := make([]uint16, 0, len(a.array))
		for _, v := range a.array {
			if !b.contains(v) {
				out = append(out, v)
			}
		}
		if len(out) == 0 {
			return nil
		}
		return &container{key: a.key, array: out}
	}
	wb := b.asBitsetWords()
	words := make([]uint64, bitmapWords)
	for i := range words {
		words[i] = a.words[i] &^ wb[i]
	}
	return containerFromWords(a.key, words)
}

// Iterator walks the values of a bitmap in ascending order.
type Iterator struct {
	b       *Bitmap
	ci      int    // container index
	ai      int    // array index within array container
	wi      int    // word index within bitset container
	word    uint64 // remaining bits of current word
	current *container
}

// Iterator returns a new ascending iterator over b. The bitmap must not be
// mutated while iterating.
func (b *Bitmap) Iterator() *Iterator {
	it := &Iterator{b: b, ci: -1}
	it.advanceContainer()
	return it
}

func (it *Iterator) advanceContainer() {
	it.ci++
	it.ai, it.wi, it.word = 0, 0, 0
	if it.ci >= len(it.b.containers) {
		it.current = nil
		return
	}
	it.current = it.b.containers[it.ci]
	if it.current.words != nil {
		it.word = it.current.words[0]
		it.skipEmptyWords()
	}
}

func (it *Iterator) skipEmptyWords() {
	for it.word == 0 {
		it.wi++
		if it.wi >= bitmapWords {
			it.advanceContainer()
			return
		}
		it.word = it.current.words[it.wi]
	}
}

// HasNext reports whether another value remains.
func (it *Iterator) HasNext() bool {
	return it.current != nil && (it.current.words != nil || it.ai < len(it.current.array))
}

// Next returns the next value. It must only be called after HasNext reports
// true.
func (it *Iterator) Next() uint32 {
	c := it.current
	if c.words == nil {
		v := uint32(c.key)<<16 | uint32(c.array[it.ai])
		it.ai++
		if it.ai >= len(c.array) {
			it.advanceContainer()
		}
		return v
	}
	b := bits.TrailingZeros64(it.word)
	v := uint32(c.key)<<16 | uint32(it.wi<<6+b)
	it.word &= it.word - 1
	it.skipEmptyWords()
	return v
}

// NextMany fills dst with the next values in ascending order and returns the
// number written. It drains containers in bulk — array containers by direct
// copy, bitset containers word-at-a-time — so per-value call overhead is
// amortized across the block. Zero means the iterator is exhausted.
func (it *Iterator) NextMany(dst []uint32) int {
	n := 0
	for n < len(dst) && it.current != nil {
		c := it.current
		hi := uint32(c.key) << 16
		if c.words == nil {
			take := len(c.array) - it.ai
			if take > len(dst)-n {
				take = len(dst) - n
			}
			for _, low := range c.array[it.ai : it.ai+take] {
				dst[n] = hi | uint32(low)
				n++
			}
			it.ai += take
			if it.ai >= len(c.array) {
				it.advanceContainer()
			}
			continue
		}
		base := hi | uint32(it.wi<<6)
		word := it.word
		for word != 0 && n < len(dst) {
			dst[n] = base | uint32(bits.TrailingZeros64(word))
			n++
			word &= word - 1
		}
		it.word = word
		if word == 0 {
			it.skipEmptyWords()
		}
	}
	return n
}

// AdvanceIfNeeded skips forward so the next value returned is >= target.
func (it *Iterator) AdvanceIfNeeded(target uint32) {
	for it.HasNext() {
		c := it.current
		hi := uint32(c.key) << 16
		if hi+0xFFFF < target {
			it.advanceContainer()
			continue
		}
		if c.words == nil {
			low := uint16(0)
			if target > hi {
				low = uint16(target - hi)
			}
			i := sort.Search(len(c.array), func(i int) bool { return c.array[i] >= low })
			if i >= len(c.array) {
				it.advanceContainer()
				continue
			}
			it.ai = max(it.ai, i)
			return
		}
		low := uint32(0)
		if target > hi {
			low = target - hi
		}
		w := int(low >> 6)
		if w > it.wi || (w == it.wi && it.word != 0) {
			if w > it.wi {
				it.wi = w
				it.word = c.words[w]
			}
			it.word &= ^uint64(0) << (low & 63)
			it.skipEmptyWords()
		}
		return
	}
}

package segment

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// matchesByGet is what matchRanges promises, asked value by value: bit i set
// when value start+i lies in one of ranges, read as [Lo, Lo+Span).
func matchesByGet(p *packedInts, start, n int, ranges []IDRange) []uint64 {
	want := make([]uint64, bitWords(n))
	for i := 0; i < n; i++ {
		id := uint64(p.get(start + i))
		for _, r := range ranges {
			if id >= uint64(r.Lo) && id < uint64(r.Lo)+uint64(r.Span) {
				want[i>>6] |= 1 << (i & 63)
				break
			}
		}
	}
	return want
}

// checkMatches asks a column over p for the matches, into a dst full of
// garbage and one word longer than it needs: the words it owns must equal the
// per-value answer, and the word past them must be untouched.
func checkMatches(tb testing.TB, p *packedInts, start, n int, ranges []IDRange) {
	tb.Helper()
	const garbage = 0xa5a5_5a5a_f00f_0ff0
	dst := make([]uint64, bitWords(n)+1)
	for i := range dst {
		dst[i] = garbage
	}
	col := &Column{numDocs: p.n, fwd: &SVForwardIndex{packed: p}}
	col.DictIDMatches(start, n, ranges, dst)
	want := matchesByGet(p, start, n, ranges)
	for i, w := range want {
		if dst[i] != w {
			tb.Fatalf("width %d, [%d, +%d), ranges %v: word %d = %#x, per-value %#x", p.width, start, n, ranges, i, dst[i], w)
		}
	}
	if dst[len(want)] != garbage {
		tb.Fatalf("width %d, [%d, +%d): wrote past its %d words", p.width, start, n, len(want))
	}
}

// randomPacked fills n values of a width, a quarter of them the smallest or
// largest id, the rest uniform.
func randomPacked(r *rand.Rand, n int, w uint8) *packedInts {
	p := newPackedInts(n, w)
	ids := uint64(1) << w
	for i := 0; i < n; i++ {
		v := uint64(r.Int63()) % ids
		switch r.Intn(8) {
		case 0:
			v = 0
		case 1:
			v = ids - 1
		}
		p.set(i, uint32(v))
	}
	return p
}

// fitRange makes a range of lo and span, cut so that it ends by 2^32 - 1.
func fitRange(lo, span uint64) IDRange {
	lo = min(lo, 1<<32-1)
	return IDRange{uint32(lo), uint32(min(span, 1<<32-1-lo))}
}

// rangeSets are the range sets the property test asks of a width: one id at
// both ends of the id space, all of it, a range ending at the last id of a
// cardinality, two and five ranges, and random ones. Some reach past the
// width's id space, as they do on a loaded column packed narrower than its
// cardinality needs (its ids only have to fit): they must be clipped, not
// carried into the next field.
func rangeSets(r *rand.Rand, w uint8) [][]IDRange {
	ids := uint64(1) << w
	all := IDRange{0, uint32(min(ids, 1<<32-1))}
	mid := uint32(ids / 2)
	card := uint32(ids - ids/3) // a cardinality inside the width
	wide := uint32(min(3*ids, 1<<32-1))
	random := func() IDRange {
		return fitRange(uint64(r.Int63())%(ids+ids/2+1), uint64(r.Int63())%(ids+2))
	}
	return [][]IDRange{
		{{0, 1}},
		{{uint32(ids - 1), 1}},
		{{mid, 1}},
		{all},
		{{0, wide}},
		{{card - 1, 1}},
		{{wide - 1, 1}},
		{{mid, wide - mid}},
		{{0, mid}, {mid + 1, card - mid - 1}},
		{{1, 1}, {3, 2}, {mid, 1}, {card - 1, 1}, {uint32(ids - 1), 1}},
		{{mid, 0}},
		{random()},
		{random(), random()},
		nil,
	}
}

// TestPackedMatchAgreesWithGet holds the packed-space range test of a column
// to per-value get for every width, chunks starting at every residue mod 64, chunks shorter
// than a window and chunks whose last window ends on the array's last word —
// the array's values exactly filling it or not.
func TestPackedMatchAgreesWithGet(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	for w := uint8(1); w <= 32; w++ {
		k := swarWidths[w].k
		for _, total := range []int{64 * 5, 64*5 + 13} {
			p := randomPacked(r, total, w)
			for _, ranges := range rangeSets(r, w) {
				for residue := 0; residue < 64; residue++ {
					start := 64 + residue
					for _, n := range []int{0, 1, k - 1, k, k + 1, 100, total - start} {
						checkMatches(t, p, start, n, ranges)
					}
				}
				checkMatches(t, p, 0, total, ranges)
			}
		}
	}
}

// FuzzPackedMatch lets the input pick the width, the ranges, the chunk and the
// packed words themselves, whose bits past the last whole value are left as
// given, as in a loaded blob: byte 0 the width, byte 1 the number of ranges
// (0-5), then two bytes each of start and length, eight bytes a range, and the
// rest is the words.
func FuzzPackedMatch(f *testing.F) {
	seed := func(w uint8, start, n uint16, ranges []IDRange, words int) []byte {
		b := []byte{w - 1, byte(len(ranges))}
		b = binary.LittleEndian.AppendUint16(b, start)
		b = binary.LittleEndian.AppendUint16(b, n)
		for _, r := range ranges {
			b = binary.LittleEndian.AppendUint32(b, r.Lo)
			b = binary.LittleEndian.AppendUint32(b, r.Span)
		}
		for i := 0; i < 8*words; i++ {
			b = append(b, byte(i*37+11))
		}
		return b
	}
	f.Add(seed(7, 3, 200, []IDRange{{17, 1}}, 30))
	f.Add(seed(12, 64, 9, []IDRange{{0, 1000}, {1001, 3000}}, 12))
	f.Add(seed(5, 0, 0xffff, []IDRange{{0, 32}}, 9))
	f.Add(seed(32, 1, 5, []IDRange{{0, 1 << 31}, {7, 1}}, 4))
	f.Add(seed(3, 11, 20, []IDRange{{9, 2}, {1, 1}, {2, 1}, {4, 1}, {6, 2}}, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		w := 1 + data[0]%32
		nr := int(data[1]) % 6
		start, n := int(binary.LittleEndian.Uint16(data[2:])), int(binary.LittleEndian.Uint16(data[4:]))
		data = data[6:]
		if len(data) < 8*nr {
			return
		}
		ids := uint64(1) << w
		ranges := make([]IDRange, nr)
		for i := range ranges {
			ranges[i] = fitRange(uint64(binary.LittleEndian.Uint32(data))%(ids+ids/2+1),
				uint64(binary.LittleEndian.Uint32(data[4:]))%(ids+2))
			data = data[8:]
		}
		words := make([]uint64, (len(data)+7)/8)
		for i, b := range data {
			words[i/8] |= uint64(b) << (8 * (i % 8))
		}
		total := len(data) * 8 / int(w)
		p, err := viewPackedInts(uint64(w), words[:packedWords(total, w)])
		if err != nil {
			t.Fatal(err)
		}
		if err := p.setLen(total); err != nil {
			t.Fatal(err)
		}
		start %= total + 1
		n %= total - start + 1
		checkMatches(t, p, start, n, ranges)
	})
}

// BenchmarkPackedMatch: the packed-space test over 1024-value chunks, for a
// range of one id (an equality, few matches) and one of five eighths of the
// ids (a wide range, most values match).
func BenchmarkPackedMatch(b *testing.B) {
	for _, w := range []uint8{4, 7, 12, 20} {
		for _, shape := range []string{"one", "wide"} {
			b.Run(fmt.Sprintf("width=%d/%s", w, shape), func(b *testing.B) {
				const n = 1 << 16
				p := randomPacked(rand.New(rand.NewSource(7)), n, w)
				ids := uint32(1) << w
				r := IDRange{17 % ids, 1}
				if shape == "wide" {
					r = IDRange{ids / 8, ids / 8 * 5}
				}
				dst := make([]uint64, bitWords(1024))
				b.SetBytes(n * 4)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for start := 0; start < n; start += 1024 {
						p.matchRanges(start, 1024, []IDRange{r}, dst)
					}
				}
			})
		}
	}
}

package bitmap

import (
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestAddContains(t *testing.T) {
	b := New()
	values := []uint32{0, 1, 63, 64, 65, 1000, 65535, 65536, 1 << 20, 1<<31 + 7}
	for _, v := range values {
		if !b.Add(v) {
			t.Fatalf("Add(%d) reported already present", v)
		}
	}
	for _, v := range values {
		if b.Add(v) {
			t.Fatalf("second Add(%d) reported absent", v)
		}
		if !b.Contains(v) {
			t.Fatalf("Contains(%d) = false", v)
		}
	}
	for _, v := range []uint32{2, 66, 999, 65537} {
		if b.Contains(v) {
			t.Fatalf("Contains(%d) = true for absent value", v)
		}
	}
	if got := b.Cardinality(); got != len(values) {
		t.Fatalf("Cardinality = %d, want %d", got, len(values))
	}
}

func TestRemove(t *testing.T) {
	b := Of(1, 2, 3, 70000)
	if !b.Remove(2) {
		t.Fatal("Remove(2) = false")
	}
	if b.Remove(2) {
		t.Fatal("second Remove(2) = true")
	}
	if b.Contains(2) {
		t.Fatal("2 still present after Remove")
	}
	if !b.Remove(70000) {
		t.Fatal("Remove(70000) = false")
	}
	if got := b.Cardinality(); got != 2 {
		t.Fatalf("Cardinality = %d, want 2", got)
	}
	// Removing the only value in a container must drop the container.
	b2 := Of(500000)
	b2.Remove(500000)
	if !b2.IsEmpty() {
		t.Fatal("bitmap not empty after removing sole value")
	}
}

func TestArrayToBitsetConversion(t *testing.T) {
	b := New()
	for i := uint32(0); i <= arrayToBitmapThreshold; i++ {
		b.Add(i * 2) // spread within one container
	}
	if b.containers[0].words == nil {
		t.Fatal("container did not convert to bitset above threshold")
	}
	if got := b.Cardinality(); got != arrayToBitmapThreshold+1 {
		t.Fatalf("Cardinality = %d", got)
	}
	for i := uint32(0); i <= arrayToBitmapThreshold; i++ {
		if !b.Contains(i * 2) {
			t.Fatalf("lost value %d after conversion", i*2)
		}
		if b.Contains(i*2 + 1) {
			t.Fatalf("gained value %d after conversion", i*2+1)
		}
	}
	// Removing most values converts back to array.
	for i := uint32(10); i <= arrayToBitmapThreshold; i++ {
		b.Remove(i * 2)
	}
	if b.containers[0].array == nil {
		t.Fatal("container did not convert back to array")
	}
	if got := b.Cardinality(); got != 10 {
		t.Fatalf("Cardinality = %d, want 10", got)
	}
}

func TestAddRange(t *testing.T) {
	b := New()
	b.AddRange(100, 200000)
	if got := b.Cardinality(); got != 200000-100 {
		t.Fatalf("Cardinality = %d, want %d", got, 200000-100)
	}
	if b.Contains(99) || !b.Contains(100) || !b.Contains(199999) || b.Contains(200000) {
		t.Fatal("range boundaries wrong")
	}
	// Adding an overlapping range must not double-count.
	b.AddRange(150, 250)
	if got := b.Cardinality(); got != 200000-100 {
		t.Fatalf("Cardinality after overlap = %d", got)
	}
	// Empty range is a no-op.
	b2 := New()
	b2.AddRange(10, 10)
	if !b2.IsEmpty() {
		t.Fatal("empty range added values")
	}
}

func TestAddRangeAcrossContainerBoundary(t *testing.T) {
	b := New()
	b.AddRange(65530, 65542)
	want := []uint32{65530, 65531, 65532, 65533, 65534, 65535, 65536, 65537, 65538, 65539, 65540, 65541}
	got := b.ToArray()
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestAddManyMatchesAdd feeds the same ascending values to AddMany in blocks
// and to Add one by one: over sparse and dense densities, blocks that split
// and span containers, array containers that cross the bitset threshold
// mid-block, repeated values, and blocks that land inside what is already
// there.
func TestAddManyMatchesAdd(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, density := range []float64{0.001, 0.05, 0.5, 1} {
		var vals []uint32
		for v := uint32(60000); v < 210000; v++ {
			if r.Float64() < density {
				vals = append(vals, v)
				if r.Intn(50) == 0 {
					vals = append(vals, v)
				}
			}
		}
		want, got := New(), Of(3, 65000, 70000, 200000)
		for _, v := range []uint32{3, 65000, 70000, 200000} {
			want.Add(v)
		}
		for _, v := range vals {
			want.Add(v)
		}
		for rest := vals; len(rest) > 0; {
			n := min(1+r.Intn(3000), len(rest))
			got.AddMany(rest[:n])
			rest = rest[n:]
		}
		if !got.Equals(want) {
			t.Fatalf("density %v: AddMany built %v, Add built %v", density, got, want)
		}
		for _, c := range got.containers {
			if (c.array == nil) == (c.words == nil) || len(c.array) > arrayToBitmapThreshold {
				t.Fatalf("density %v: container %d is neither a valid array nor a bitset", density, c.key)
			}
			if c.words != nil {
				card := 0
				for _, w := range c.words {
					card += bits.OnesCount64(w)
				}
				if card != c.card {
					t.Fatalf("density %v: container %d counts %d, holds %d", density, c.key, c.card, card)
				}
			}
		}
	}
	b := New()
	b.AddMany(nil)
	if !b.IsEmpty() {
		t.Fatal("AddMany(nil) added something")
	}
}

func TestMinMax(t *testing.T) {
	b := New()
	if _, ok := b.Minimum(); ok {
		t.Fatal("Minimum on empty reported ok")
	}
	if _, ok := b.Maximum(); ok {
		t.Fatal("Maximum on empty reported ok")
	}
	b = Of(42, 7, 1<<20, 65536)
	if v, _ := b.Minimum(); v != 7 {
		t.Fatalf("Minimum = %d", v)
	}
	if v, _ := b.Maximum(); v != 1<<20 {
		t.Fatalf("Maximum = %d", v)
	}
	// Dense container paths.
	d := FromRange(70000, 80000)
	if v, _ := d.Minimum(); v != 70000 {
		t.Fatalf("dense Minimum = %d", v)
	}
	if v, _ := d.Maximum(); v != 79999 {
		t.Fatalf("dense Maximum = %d", v)
	}
}

func refSet(vals []uint32) map[uint32]bool {
	m := make(map[uint32]bool, len(vals))
	for _, v := range vals {
		m[v] = true
	}
	return m
}

func randomValues(r *rand.Rand, n int, max uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = r.Uint32() % max
	}
	return out
}

func TestSetOperationsAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		av := randomValues(r, 3000, 1<<18)
		bv := randomValues(r, 3000, 1<<18)
		a, b := Of(av...), Of(bv...)
		sa, sb := refSet(av), refSet(bv)

		and := And(a, b)
		or := Or(a, b)
		andNot := AndNot(a, b)
		for v := uint32(0); v < 1<<18; v++ {
			inA, inB := sa[v], sb[v]
			if and.Contains(v) != (inA && inB) {
				t.Fatalf("And mismatch at %d", v)
			}
			if or.Contains(v) != (inA || inB) {
				t.Fatalf("Or mismatch at %d", v)
			}
			if andNot.Contains(v) != (inA && !inB) {
				t.Fatalf("AndNot mismatch at %d", v)
			}
		}
	}
}

func TestSetOperationsDenseContainers(t *testing.T) {
	a := FromRange(0, 60000)
	b := FromRange(30000, 90000)
	and := And(a, b)
	if got := and.Cardinality(); got != 30000 {
		t.Fatalf("And cardinality = %d", got)
	}
	or := Or(a, b)
	if got := or.Cardinality(); got != 90000 {
		t.Fatalf("Or cardinality = %d", got)
	}
	diff := AndNot(a, b)
	if got := diff.Cardinality(); got != 30000 {
		t.Fatalf("AndNot cardinality = %d", got)
	}
	if diff.Contains(30000) || !diff.Contains(29999) {
		t.Fatal("AndNot boundary wrong")
	}
}

func TestFlipRange(t *testing.T) {
	b := Of(2, 5, 7)
	f := FlipRange(b, 0, 10)
	want := []uint32{0, 1, 3, 4, 6, 8, 9}
	got := f.ToArray()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Values outside the domain are dropped.
	b2 := Of(100, 200)
	f2 := FlipRange(b2, 150, 160)
	if f2.Cardinality() != 10 || f2.Contains(100) {
		t.Fatalf("FlipRange domain handling wrong: %v", f2.ToArray())
	}
	// Complement of full range is empty.
	f3 := FlipRange(FromRange(0, 100), 0, 100)
	if !f3.IsEmpty() {
		t.Fatal("complement of full range not empty")
	}
}

func TestIteratorOrder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	vals := randomValues(r, 20000, 1<<24)
	b := Of(vals...)
	sorted := append([]uint32(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// dedupe
	uniq := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			uniq = append(uniq, v)
		}
	}
	got := b.ToArray()
	if len(got) != len(uniq) {
		t.Fatalf("iterator yielded %d values, want %d", len(got), len(uniq))
	}
	for i := range uniq {
		if got[i] != uniq[i] {
			t.Fatalf("value %d: got %d, want %d", i, got[i], uniq[i])
		}
	}
}

func TestIteratorAdvance(t *testing.T) {
	b := Of(1, 5, 100, 65536, 70000, 200000)
	it := b.Iterator()
	it.AdvanceIfNeeded(6)
	if v := it.Next(); v != 100 {
		t.Fatalf("after advance(6): %d", v)
	}
	it.AdvanceIfNeeded(70000)
	if v := it.Next(); v != 70000 {
		t.Fatalf("after advance(70000): %d", v)
	}
	it.AdvanceIfNeeded(999999)
	if it.HasNext() {
		t.Fatal("iterator should be exhausted")
	}
	// Advancing to a value below the current position is a no-op.
	it2 := b.Iterator()
	it2.Next()
	it2.AdvanceIfNeeded(0)
	if v := it2.Next(); v != 5 {
		t.Fatalf("backward advance moved iterator: %d", v)
	}
	// Advance within a dense container.
	d := FromRange(0, 50000)
	itd := d.Iterator()
	itd.AdvanceIfNeeded(43217)
	if v := itd.Next(); v != 43217 {
		t.Fatalf("dense advance: %d", v)
	}
}

func TestClone(t *testing.T) {
	b := Of(1, 2, 3)
	b.AddRange(100000, 170000)
	c := b.Clone()
	c.Add(4)
	c.Remove(1)
	if b.Contains(4) || !b.Contains(1) {
		t.Fatal("clone aliases original")
	}
	if !c.Contains(4) || c.Contains(1) {
		t.Fatal("clone mutation lost")
	}
}

// Property: for any two value sets, De Morgan-style identities hold within a
// domain covering all values.
func TestQuickSetAlgebra(t *testing.T) {
	f := func(av, bv []uint16) bool {
		a32 := make([]uint32, len(av))
		for i, v := range av {
			a32[i] = uint32(v) * 3
		}
		b32 := make([]uint32, len(bv))
		for i, v := range bv {
			b32[i] = uint32(v) * 3
		}
		a, b := Of(a32...), Of(b32...)
		const domain = 3 * 65536
		// a ∩ b == a \ (a \ b)
		lhs := And(a, b)
		rhs := AndNot(a, AndNot(a, b))
		if !lhs.Equals(rhs) {
			return false
		}
		// ¬(a ∪ b) == ¬a ∩ ¬b  within domain
		l2 := FlipRange(Or(a, b), 0, domain)
		r2 := And(FlipRange(a, 0, domain), FlipRange(b, 0, domain))
		return l2.Equals(r2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: cardinality of union = |a| + |b| - |a ∩ b|.
func TestQuickInclusionExclusion(t *testing.T) {
	f := func(av, bv []uint32) bool {
		a, b := Of(av...), Of(bv...)
		return Or(a, b).Cardinality() == a.Cardinality()+b.Cardinality()-And(a, b).Cardinality()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBitmapAnd(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	x := Of(randomValues(r, 100000, 1<<22)...)
	y := Of(randomValues(r, 100000, 1<<22)...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		And(x, y)
	}
}

func BenchmarkBitmapIterate(b *testing.B) {
	x := FromRange(0, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := x.Iterator()
		for it.HasNext() {
			it.Next()
		}
	}
}

func TestOrAllAndString(t *testing.T) {
	a, b, c := Of(1, 2), Of(2, 3), Of(70000)
	u := OrAll(a, nil, b, c)
	if u.Cardinality() != 4 || !u.Contains(70000) {
		t.Fatalf("OrAll = %v", u.ToArray())
	}
	if OrAll().Cardinality() != 0 {
		t.Fatal("empty OrAll")
	}
	if s := u.String(); s == "" {
		t.Fatal("empty String()")
	}
}

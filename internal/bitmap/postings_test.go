package bitmap

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// samplePostings covers every container shape the format distinguishes: no
// containers, one array, an array at the conversion threshold, bitsets, a
// bitmap spanning several keys, and a bitset thinned below the threshold
// that has not converted back yet.
func samplePostings() []Bitmap {
	r := rand.New(rand.NewSource(5))
	thinned := FromRange(0, 6000)
	for v := uint32(0); v < 3000; v++ {
		thinned.Remove(v * 2)
	}
	if thinned.containers[0].words == nil {
		panic("thinned container converted early: the sample no longer covers a sparse bitset")
	}
	return []Bitmap{
		{},
		*Of(7),
		*FromRange(100, 100+arrayToBitmapThreshold),
		*FromRange(65536, 65536+arrayToBitmapThreshold+1),
		*Of(randomValues(r, 20000, 1<<20)...),
		*thinned,
		*FromRange(1<<31, 1<<31+200000),
	}
}

// aligned returns a copy of b that starts shift bytes past an 8-byte
// boundary.
func aligned(b []byte, shift int) []byte {
	buf := make([]uint64, (len(b)+shift)/8+1)
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), len(buf)*8)
	return raw[shift : shift+copy(raw[shift:], b)]
}

func within(p unsafe.Pointer, b []byte) bool {
	lo := uintptr(unsafe.Pointer(&b[0]))
	return uintptr(p) >= lo && uintptr(p) < lo+uintptr(len(b))
}

func TestPostingsRoundTrip(t *testing.T) {
	want := samplePostings()
	blob := MarshalPostings(want)
	for shift := 0; shift < 3; shift++ {
		buf := aligned(blob, shift)
		got, err := ViewPostings(buf)
		if err != nil {
			t.Fatalf("shift %d: %v", shift, err)
		}
		if len(got) != len(want) {
			t.Fatalf("shift %d: %d bitmaps, want %d", shift, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equals(&want[i]) {
				t.Errorf("shift %d: bitmap %d differs", shift, i)
			}
		}
		if again := MarshalPostings(got); !bytes.Equal(again, blob) {
			t.Errorf("shift %d: the viewed bitmaps serialize to different bytes", shift)
		}
		// An aligned buffer is read in place, a byte-shifted one is decoded.
		inPlace := within(unsafe.Pointer(&got[3].containers[0].words[0]), buf) &&
			within(unsafe.Pointer(&got[1].containers[0].array[0]), buf)
		if inPlace != (shift == 0) {
			t.Errorf("shift %d: containers alias the buffer: %v", shift, inPlace)
		}
	}
}

// TestViewedPostingsAreReadOnly: every operation that takes bitmaps leaves
// viewed ones, and the bytes under them, as they were, and a direct write
// panics instead of editing shared bytes.
func TestViewedPostingsAreReadOnly(t *testing.T) {
	buf := aligned(MarshalPostings(samplePostings()), 0)
	before := append([]byte(nil), buf...)
	v, err := ViewPostings(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		for j := range v {
			a, b := &v[i], &v[j]
			And(a, b)
			out := Or(a, b)
			out.Add(3)
			out.AddRange(0, 70000)
			out = AndNot(a, b)
			out.Remove(7)
		}
		FlipRange(&v[i], 0, 300000).Add(1)
		c := v[i].Clone()
		c.AddMany([]uint32{1, 2, 3})
		AndAll(&v[i]).Add(9)
		OrAll(&v[i]).AddRange(5, 50000)
	}
	if !bytes.Equal(buf, before) {
		t.Fatal("an operation over viewed bitmaps wrote to their bytes")
	}
	for name, write := range map[string]func(b *Bitmap){
		"Add":      func(b *Bitmap) { b.Add(1) },
		"AddMany":  func(b *Bitmap) { b.AddMany([]uint32{1}) },
		"AddRange": func(b *Bitmap) { b.AddRange(1, 2) },
		"Remove":   func(b *Bitmap) { b.Remove(7) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a viewed bitmap did not panic", name)
				}
			}()
			write(&v[1])
		}()
	}
	if !bytes.Equal(buf, before) {
		t.Fatal("a refused write still changed the bytes")
	}
}

// allocatedBy meters the bytes fn allocates: the least of three runs, because
// TotalAlloc is the whole process's.
func allocatedBy(fn func()) uint64 {
	best := ^uint64(0)
	var before, after runtime.MemStats
	for try := 0; try < 3; try++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// checkView is ViewPostings' contract over arbitrary bytes: an error and
// never a panic; allocation linear in the input whatever counts it declares
// (a bitmap costs 32 bytes for the 4 of its end, a container 72 for at least
// 6, and a misaligned input is decoded into as many bytes again); and
// accepted bytes are the unique form of what they hold and survive every
// read.
func checkView(t *testing.T, data []byte) {
	t.Helper()
	var v []Bitmap
	var err error
	if got, limit := allocatedBy(func() { v, err = ViewPostings(data) }), uint64(16*len(data)+1024); got > limit {
		t.Fatalf("viewing %d bytes allocated %d, limit %d", len(data), got, limit)
	}
	if err != nil {
		return
	}
	if again := MarshalPostings(v); !bytes.Equal(again, data) {
		t.Fatalf("accepted postings of %d bytes serialize to %d different ones", len(data), len(again))
	}
	all := New()
	for i := range v {
		b := &v[i]
		vals := b.ToArray()
		if len(vals) != b.Cardinality() {
			t.Fatalf("bitmap %d iterates %d values, declares %d", i, len(vals), b.Cardinality())
		}
		for j, x := range vals {
			if j > 0 && x <= vals[j-1] {
				t.Fatalf("bitmap %d iterates out of order", i)
			}
			if !b.Contains(x) {
				t.Fatalf("bitmap %d iterates %d and does not contain it", i, x)
			}
		}
		if mx, ok := b.Maximum(); ok && mx != vals[len(vals)-1] {
			t.Fatalf("bitmap %d: maximum %d, last value %d", i, mx, vals[len(vals)-1])
		}
		all = Or(all, b)
		And(all, b)
		AndNot(all, b)
	}
}

func TestViewPostingsRejectsCorruption(t *testing.T) {
	blob := MarshalPostings(samplePostings())
	for n := 0; n < len(blob); n += 97 {
		if _, err := ViewPostings(blob[:n]); err == nil {
			t.Fatalf("accepted a truncation to %d of %d bytes", n, len(blob))
		}
	}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 1000; trial++ {
		corrupt := append([]byte(nil), blob...)
		// Mostly the header and the tables, where a flip changes structure.
		at := r.Intn(len(corrupt))
		if trial%2 == 0 {
			at = r.Intn(postingsHeader)
		}
		corrupt[at] ^= byte(1 + r.Intn(255))
		checkView(t, corrupt)
	}
	// A header alone claiming the largest counts allocates nothing.
	bomb := make([]byte, postingsHeader)
	binary.LittleEndian.PutUint32(bomb[0:], 1<<31)
	binary.LittleEndian.PutUint32(bomb[4:], 1<<31)
	checkView(t, bomb)
	if _, err := ViewPostings(bomb); err == nil {
		t.Fatal("accepted counts the bytes cannot hold")
	}
}

// FuzzBitmapView starts from small postings — the engine's throughput falls
// with the size of its inputs — that between them hold an empty bitmap,
// arrays under several keys and one bitset.
func FuzzBitmapView(f *testing.F) {
	f.Add(MarshalPostings(nil))
	f.Add(MarshalPostings([]Bitmap{*Of(1, 2, 70000), {}, *Of(9)}))
	f.Add(MarshalPostings([]Bitmap{*Of(3), *FromRange(65536, 65536+arrayToBitmapThreshold+1)}))
	f.Fuzz(func(t *testing.T, data []byte) { checkView(t, data) })
}

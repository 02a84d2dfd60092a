package view

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"unsafe"
)

// TestOfAliasesAlignedBytesAndDecodesTheRest: the same values either way,
// the same memory only when the bytes sit on a multiple of the element size.
func TestOfAliasesAlignedBytesAndDecodesTheRest(t *testing.T) {
	words := make([]uint64, 5) // an 8-aligned backing array
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), 40)
	for i := range raw {
		raw[i] = byte(i*37 + 1)
	}
	for shift := 0; shift < 8; shift++ {
		b := raw[shift : shift+24]
		u64, f64, i32, u16 := Of[uint64](b), Of[float64](b), Of[int32](b), Of[uint16](b)
		for i := range u64 {
			want := binary.LittleEndian.Uint64(b[i*8:])
			if u64[i] != want || math.Float64bits(f64[i]) != want {
				t.Fatalf("shift %d: value %d decoded as %x / %x, want %x", shift, i, u64[i], math.Float64bits(f64[i]), want)
			}
		}
		for i := range i32 {
			if want := int32(binary.LittleEndian.Uint32(b[i*4:])); i32[i] != want {
				t.Fatalf("shift %d: int32 %d = %x, want %x", shift, i, i32[i], want)
			}
		}
		for i := range u16 {
			if want := binary.LittleEndian.Uint16(b[i*2:]); u16[i] != want {
				t.Fatalf("shift %d: uint16 %d = %x, want %x", shift, i, u16[i], want)
			}
		}
		for name, c := range map[string]struct {
			p     unsafe.Pointer
			size  int
			n, nc int
		}{
			"uint64": {unsafe.Pointer(&u64[0]), 8, len(u64), cap(u64)},
			"int32":  {unsafe.Pointer(&i32[0]), 4, len(i32), cap(i32)},
			"uint16": {unsafe.Pointer(&u16[0]), 2, len(u16), cap(u16)},
		} {
			if aliases := c.p == unsafe.Pointer(&b[0]); aliases != (shift%c.size == 0) {
				t.Errorf("shift %d: %s view aliases the bytes: %v", shift, name, aliases)
			}
			if c.n != 24/c.size || c.nc != c.n {
				t.Errorf("shift %d: %s view has len %d cap %d", shift, name, c.n, c.nc)
			}
		}
	}
	if Of[uint32]([]byte{1, 2, 3}) != nil || Of[uint64](nil) != nil {
		t.Error("bytes short of one value gave a view")
	}
}

func TestBytesIsTheInverseOfOf(t *testing.T) {
	vals := []float64{0, -1.5, math.Inf(1), math.SmallestNonzeroFloat64}
	var want []byte
	for _, v := range vals {
		want = binary.LittleEndian.AppendUint64(want, math.Float64bits(v))
	}
	if got := Bytes(vals); !bytes.Equal(got, want) {
		t.Fatalf("Bytes = %x, want %x", got, want)
	}
	if Bytes[int32](nil) != nil {
		t.Error("no values gave bytes")
	}
	if s := String([]byte("héllo")); s != "héllo" || String(nil) != "" {
		t.Errorf("String = %q", s)
	}
}

// TestSwap covers the byte order conversion a big-endian host applies after
// copying, which no little-endian run reaches otherwise.
func TestSwap(t *testing.T) {
	b := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	swap(b, 4)
	if want := []byte{4, 3, 2, 1, 8, 7, 6, 5, 12, 11, 10, 9}; !bytes.Equal(b, want) {
		t.Fatalf("swap = %v, want %v", b, want)
	}
}

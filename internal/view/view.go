// Package view is the one place a segment's bytes are reinterpreted as typed
// slices. An immutable segment is served from the buffer it was stored in
// (DESIGN.md "Immutable segments: one buffer, typed views"): every numeric
// array of the format is little-endian and sits at a multiple of its element
// size from the start of the buffer, so on a little-endian host with an
// aligned buffer Of returns the bytes themselves under another type. Whether
// it can is decided by the input alone — a misaligned buffer, or a big-endian
// host, gets a decoded copy — and the caller cannot tell the difference
// except by address.
//
// Whatever Of, String or Bytes returns may alias its argument and is
// read-only for as long as anything else holds those bytes.
package view

import "unsafe"

// Word is an element type of the segment format.
type Word interface {
	~uint16 | ~uint32 | ~uint64 | ~int32 | ~int64 | ~float64
}

var littleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Of returns the len(b)/sizeof(T) little-endian values of b; trailing bytes
// short of a value are ignored. The result has no spare capacity, so an
// append to it never writes into b.
func Of[T Word](b []byte) []T {
	var zero T
	size := int(unsafe.Sizeof(zero))
	n := len(b) / size
	if n == 0 {
		return nil
	}
	if littleEndian && uintptr(unsafe.Pointer(&b[0]))%uintptr(size) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]T, n)
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), n*size)
	copy(raw, b)
	if !littleEndian {
		swap(raw, size)
	}
	return out
}

// Bytes returns the little-endian encoding of s, the inverse of Of.
func Bytes[T Word](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	size := int(unsafe.Sizeof(s[0]))
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*size)
	if littleEndian {
		return raw
	}
	out := append([]byte(nil), raw...)
	swap(out, size)
	return out
}

// swap reverses the bytes of every size-byte element of b.
func swap(b []byte, size int) {
	for ; len(b) >= size; b = b[size:] {
		for i, j := 0, size-1; i < j; i, j = i+1, j-1 {
			b[i], b[j] = b[j], b[i]
		}
	}
}

// String returns b as a string without copying it.
func String(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

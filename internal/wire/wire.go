// Package wire holds the byte primitives of the repo's one binary encoding
// — what a varint, a float, a bool, a string and a checked count look like —
// and the one frame layer every socket speaks (frame.go). It knows no
// message. internal/query lays an Intermediate and a parsed query out with
// these primitives (query/wire.go), internal/transport lays the nine message
// envelopes of the data plane around those (transport/codec.go),
// internal/zkmeta the three of the metadata endpoint, and both cache tiers
// store an intermediate's bytes. The rules that hold everywhere:
//
//   - integers are varints (zigzag for signed fields), float64 is its raw
//     IEEE-754 bits big-endian (NaN payloads, ±Inf and -0.0 survive), a bool
//     is one byte that must be 0 or 1, a string is a uvarint length + bytes;
//   - every count and length is checked against the bytes that remain
//     *before* anything is allocated for it, so decoding n bytes allocates
//     O(n) whatever the prefixes claim;
//   - recursion (predicate and expression trees, nested []any cells) stops
//     at MaxNesting;
//   - the decoder never aliases its input into what it returns: strings are
//     copies, so a decoded value pins neither a frame buffer nor a cache
//     entry;
//   - a payload must be consumed exactly; trailing bytes are an error.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// MaxNesting caps the depth of a query's predicate and expression tree or of
// nested []any cells. The parser stops a level short of it (pql.MaxDepth),
// leaving the level the broker's hybrid rewrite adds; the cap is what keeps a
// hostile payload from recursing a decoder off its stack.
const MaxNesting = 32

// ---- encoder ----

// Encoder appends one message to a buffer. An unsupported value records the
// first error through Fail and encoding keeps going; the caller checks Err
// before the bytes leave its hands.
type Encoder struct {
	b   []byte
	err error
}

// encoderPool recycles encode buffers: a frame is encoded straight into one,
// behind its header, and written to the socket from it; a cache entry is
// encoded into one and copied out at its exact size. A steady process
// allocates no buffer per message. A buffer that grew past maxPooledBuf is
// dropped instead of pooled so one huge selection response or segment blob
// cannot pin its backing array forever.
var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

const maxPooledBuf = 1 << 20

// GetEncoder returns an empty pooled encoder; Release returns it.
func GetEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.b, e.err = e.b[:0], nil
	return e
}

// Release hands the encoder back; Bytes must not be used afterwards.
func (e *Encoder) Release() {
	if cap(e.b) <= maxPooledBuf {
		encoderPool.Put(e)
	}
}

// Bytes returns what has been appended so far. The slice aliases the
// encoder's buffer: valid until the next append or Release.
func (e *Encoder) Bytes() []byte { return e.b }

// Err returns the first failure recorded by Fail.
func (e *Encoder) Err() error { return e.err }

// Fail records the first value the encoding cannot carry.
func (e *Encoder) Fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf(format, args...)
	}
}

func (e *Encoder) Raw(p ...byte)    { e.b = append(e.b, p...) }
func (e *Encoder) Varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *Encoder) Uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *Encoder) Count(n int)      { e.b = binary.AppendUvarint(e.b, uint64(n)) }
func (e *Encoder) Float(f float64)  { e.b = binary.BigEndian.AppendUint64(e.b, math.Float64bits(f)) }

func (e *Encoder) Bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *Encoder) Str(s string) {
	e.Count(len(s))
	e.b = append(e.b, s...)
}

// Chars appends a string's bytes alone, for a caller that writes the length
// elsewhere (a column of strings is one run of bytes and then the lengths).
func (e *Encoder) Chars(s string) { e.b = append(e.b, s...) }

func (e *Encoder) Strs(ss []string) {
	e.Count(len(ss))
	for _, s := range ss {
		e.Str(s)
	}
}

// Blob appends a length-prefixed byte run.
func (e *Encoder) Blob(p []byte) {
	e.Count(len(p))
	e.b = append(e.b, p...)
}

// ---- decoder ----

// Decoder consumes one payload front to back. The first malformed field
// records the error and empties the input, after which every read yields a
// zero value and every count is 0, so callers run to their end without
// checking each step and ask Finish once.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a decoder over b. It reads b, never writes it, and
// nothing it returns aliases it except Bytes.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Fail records the first malformed field and stops the decode.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.b = nil
}

// Err returns the first failure so far.
func (d *Decoder) Err() error { return d.err }

// Finish reports the payload's verdict: the first error, or trailing bytes.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.b) > 0 {
		d.Fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

// Remaining returns how many bytes are still to be consumed: the bound for
// an allocation whose size no single count states.
func (d *Decoder) Remaining() int { return len(d.b) }

func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.Fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *Decoder) Varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.Fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int reads a varint that must fit an int.
func (d *Decoder) Int() int {
	v := d.Varint()
	if int64(int(v)) != v {
		d.Fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

func (d *Decoder) Byte() byte {
	if len(d.b) == 0 {
		d.Fail("unexpected end of payload")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *Decoder) Bool() bool {
	c := d.Byte()
	if c > 1 {
		d.Fail("bool byte 0x%02x", c)
	}
	return c == 1
}

func (d *Decoder) Float() float64 {
	if len(d.b) < 8 {
		d.Fail("unexpected end of payload")
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return math.Float64frombits(v)
}

// Count reads an element count and refuses it unless that many elements of
// at least minBytes each can still follow. Callers allocate only after this.
func (d *Decoder) Count(minBytes int) int {
	n := d.Uvarint()
	if n > uint64(len(d.b)/minBytes) {
		d.Fail("count %d exceeds the %d bytes that remain", n, len(d.b))
		return 0
	}
	return int(n)
}

// Bytes returns a length-prefixed run that aliases the payload.
func (d *Decoder) Bytes() []byte {
	n := d.Count(1)
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *Decoder) Str() string { return string(d.Bytes()) }

func (d *Decoder) Strs() []string {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.Str()
	}
	return out
}

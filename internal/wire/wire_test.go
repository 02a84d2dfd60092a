package wire

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	payloadNaN := math.Float64frombits(0x7ff8_0000_dead_beef)
	floats := []float64{payloadNaN, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, math.MaxFloat64}
	ints := []int64{0, 1, -1, 63, 64, -65, math.MaxInt64, math.MinInt64}
	var e Encoder
	for _, v := range ints {
		e.Varint(v)
	}
	for _, f := range floats {
		e.Float(f)
	}
	e.Bool(true)
	e.Bool(false)
	e.Str("")
	e.Str("héllo")
	e.Strs(nil)
	e.Strs([]string{"a", "", "bc"})
	e.Blob([]byte{1, 2, 3})
	e.Count(300)
	e.Raw(7, 8)
	if e.Err() != nil {
		t.Fatal(e.Err())
	}

	d := NewDecoder(e.Bytes())
	for _, v := range ints {
		if got := d.Varint(); got != v {
			t.Errorf("varint %d came back as %d", v, got)
		}
	}
	for _, f := range floats {
		if got := d.Float(); math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("float %v came back as %v (bits %x vs %x)", f, got, math.Float64bits(got), math.Float64bits(f))
		}
	}
	if !d.Bool() || d.Bool() {
		t.Error("bools changed")
	}
	if d.Str() != "" || d.Str() != "héllo" {
		t.Error("strings changed")
	}
	if got := d.Strs(); got != nil {
		t.Errorf("an empty string list decoded to %#v, want nil", got)
	}
	if got := d.Strs(); !reflect.DeepEqual(got, []string{"a", "", "bc"}) {
		t.Errorf("string list = %q", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("blob = %v", got)
	}
	if got := d.Uvarint(); got != 300 {
		t.Errorf("count = %d", got)
	}
	if d.Byte() != 7 || d.Byte() != 8 {
		t.Error("raw bytes changed")
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestDecodedStringsDoNotAliasThePayload: a decoded value must not pin, or
// change with, the buffer it was read from.
func TestDecodedStringsDoNotAliasThePayload(t *testing.T) {
	var e Encoder
	e.Str("segment_0")
	e.Strs([]string{"country"})
	payload := append([]byte(nil), e.Bytes()...)
	d := NewDecoder(payload)
	s, ss := d.Str(), d.Strs()
	for i := range payload {
		payload[i] = 'x'
	}
	if s != "segment_0" || ss[0] != "country" {
		t.Fatalf("decoded strings moved with the payload: %q %q", s, ss)
	}
}

func TestDecoderRefusesMalformedInput(t *testing.T) {
	for name, c := range map[string]struct {
		in   []byte
		read func(d *Decoder)
		want string
	}{
		"empty varint":       {nil, func(d *Decoder) { d.Varint() }, "bad varint"},
		"unfinished uvarint": {[]byte{0x80}, func(d *Decoder) { d.Uvarint() }, "bad uvarint"},
		"overlong uvarint":   {bytes.Repeat([]byte{0xff}, 11), func(d *Decoder) { d.Uvarint() }, "bad uvarint"},
		"no byte":            {nil, func(d *Decoder) { d.Byte() }, "unexpected end"},
		"short float":        {make([]byte, 7), func(d *Decoder) { d.Float() }, "unexpected end"},
		"bool 2":             {[]byte{2}, func(d *Decoder) { d.Bool() }, "bool byte 0x02"},
		"string past the end": {[]byte{5, 'a', 'b'}, func(d *Decoder) {
			if s := d.Str(); s != "" {
				t.Errorf("a refused string came back as %q", s)
			}
		}, "count 5 exceeds the 2 bytes"},
		"count of wide elements": {[]byte{3, 0, 0, 0, 0, 0, 0, 0, 0}, func(d *Decoder) { d.Count(8) }, "count 3 exceeds"},
		"huge string list": {[]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 'a'}, func(d *Decoder) {
			if ss := d.Strs(); ss != nil {
				t.Errorf("a refused list allocated %d strings", len(ss))
			}
		}, "exceeds"},
		"trailing bytes": {[]byte{0, 9}, func(d *Decoder) { d.Byte() }, "1 trailing bytes"},
	} {
		d := NewDecoder(c.in)
		c.read(&d)
		if err := d.Finish(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", name, err, c.want)
		}
	}
}

// TestFirstFailureSticks: after a malformed field every read yields zero
// values, so a message decoder runs to its end and asks once.
func TestFirstFailureSticks(t *testing.T) {
	d := NewDecoder([]byte{2, 1, 1, 1})
	d.Bool()
	first := d.Err()
	if first == nil {
		t.Fatal("bool byte 2 accepted")
	}
	if d.Varint() != 0 || d.Int() != 0 || d.Float() != 0 || d.Str() != "" || d.Count(1) != 0 || d.Strs() != nil || len(d.Bytes()) != 0 {
		t.Error("a read after the failure yielded a value")
	}
	d.Fail("a later complaint")
	if d.Err() != first || d.Finish() != first {
		t.Errorf("the first failure was replaced: %v", d.Err())
	}

	var e Encoder
	e.Fail("first %d", 1)
	e.Fail("second")
	e.Str("still appends")
	if e.Err() == nil || e.Err().Error() != "first 1" {
		t.Errorf("encoder error = %v", e.Err())
	}
}

// TestPooledEncoderStartsClean: a recycled encoder carries neither the bytes
// nor the failure of its last use, and an outsized buffer is not kept.
func TestPooledEncoderStartsClean(t *testing.T) {
	e := GetEncoder()
	e.Str("left over")
	e.Fail("left over")
	e.Release()
	for i := 0; i < 4; i++ {
		e := GetEncoder()
		if len(e.Bytes()) != 0 || e.Err() != nil {
			t.Fatalf("a pooled encoder starts with %d bytes and error %v", len(e.Bytes()), e.Err())
		}
		e.Release()
	}
	big := GetEncoder()
	big.Raw(make([]byte, maxPooledBuf+1)...)
	big.Release()
	for i := 0; i < 4; i++ {
		e := GetEncoder()
		if cap(e.Bytes()) > maxPooledBuf {
			t.Fatalf("a %d-byte buffer went back to the pool", cap(e.Bytes()))
		}
		e.Release()
	}
}

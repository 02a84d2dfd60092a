package transport

import (
	"bytes"
	"testing"

	"pinot/internal/wire"
)

// sampleFrames returns one valid encoded frame of every type the data plane
// sends, as complete wire bytes (header + payload), keyed by sample name.
func sampleFrames(t testing.TB) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for name, m := range sampleMessages() {
		out[name] = encodeFrame(t, m)
	}
	return out
}

// decodeTyped runs the typed decoder of a frame type over a payload.
func decodeTyped(t testing.TB, typ uint8, payload []byte) (any, error) {
	switch typ {
	case FrameQuery:
		return DecodeQueryFrame(payload)
	case FrameSegment:
		sf, err := DecodeSegmentFrame(payload)
		if err == nil && sf.Result == nil {
			t.Fatal("accepted segment frame without a result")
		}
		return sf, err
	case FrameFinal:
		ff, err := DecodeFinalFrame(payload)
		if err == nil && ff.Frames < 0 {
			t.Fatal("accepted final frame with negative frame count")
		}
		return ff, err
	case FrameError:
		return DecodeErrorFrame(payload)
	}
	var msg any
	d := wire.NewDecoder(payload)
	switch typ {
	case FrameConsumed:
		msg = decodeConsumedRequest(&d)
	case FrameConsumedResp:
		msg = decodeConsumedResponse(&d)
	case FrameCommit:
		msg = decodeCommitRequest(&d)
	case FrameCommitResp:
		msg = decodeCommitResponse(&d)
	default:
		t.Fatalf("frame type %d has no decoder", typ)
	}
	return msg, finish(&d)
}

// decodeFrameSafely drives the data plane's production reader over data, then
// the typed payload decoder of the frame it read. Neither may panic or return
// (nil, nil); together they may allocate at most 65536 + 64·len(data) bytes,
// whatever length the header announces; and whatever they accept the encoder
// can write back in a form they accept again: the codec reads no value it
// cannot carry.
func decodeFrameSafely(t testing.TB, data []byte) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("frame decode panicked on %d bytes: %v", len(data), p)
		}
	}()
	var typ uint8
	var msg any
	var err error
	got := allocatedBy(func() {
		var fr *gotFrame
		if fr, err = readFrame(bytes.NewReader(data)); err == nil {
			typ = fr.Type
			msg, err = decodeTyped(t, typ, fr.Payload)
		}
	})
	if limit := uint64(65536 + 64*len(data)); got > limit {
		t.Fatalf("reading and decoding %d bytes allocated %d, limit %d", len(data), got, limit)
	}
	if err != nil {
		return
	}
	if msg == nil {
		t.Fatalf("nil message with nil error on %d bytes", len(data))
	}
	again := encodeFrame(t, msg)
	if _, err := decodeTyped(t, typ, again[wire.FrameHeaderSize:]); err != nil {
		t.Fatalf("re-encoded %T is refused: %v", msg, err)
	}
}

// oversizedHeader announces a 64 MiB query frame and sends 16 bytes of it.
var oversizedHeader = append([]byte{frameMagic, frameVersion, FrameQuery, 0, 0x04, 0, 0, 0}, make([]byte, 16)...)

// TestDecodeFrameNeverPanics drives the frame reader through every
// truncation and every single-bit flip of each valid frame type, plus
// degenerate inputs. Corruption must yield an error or a valid decode —
// never a panic, never (nil, nil), never an allocation the bytes did not pay
// for.
func TestDecodeFrameNeverPanics(t *testing.T) {
	for name, valid := range sampleFrames(t) {
		t.Run(name, func(t *testing.T) {
			for n := 0; n < len(valid); n++ {
				decodeFrameSafely(t, valid[:n])
				// Every strict truncation must fail: either the header is
				// short or the payload is shorter than the header claims.
				if _, err := readFrame(bytes.NewReader(valid[:n])); err == nil {
					t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(valid))
				}
			}
			for i := 0; i < len(valid); i++ {
				for bit := 0; bit < 8; bit++ {
					mut := make([]byte, len(valid))
					copy(mut, valid)
					mut[i] ^= 1 << bit
					decodeFrameSafely(t, mut)
				}
			}
			// The reader stops at the frame's end: what follows is the next
			// frame's header.
			r := bytes.NewReader(append(append([]byte{}, valid...), 0x00))
			if _, err := readFrame(r); err != nil || r.Len() != 1 {
				t.Fatalf("reading a frame followed by one byte: err %v, %d bytes left", err, r.Len())
			}
		})
	}

	degenerate := [][]byte{
		nil,
		{},
		{frameMagic},
		{frameMagic, frameVersion, FrameQuery, 0, 0xff, 0xff, 0xff, 0xff}, // over MaxFramePayload
		oversizedHeader,
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
	}
	for _, d := range degenerate {
		decodeFrameSafely(t, d)
		if _, err := readFrame(bytes.NewReader(d)); err == nil {
			t.Fatalf("degenerate input %v decoded without error", d)
		}
	}
}

// FuzzDecodeFrame lets the fuzzer search for inputs that panic the frame
// reader or the typed payload decoders, or make them allocate beyond what
// the input paid for, seeded with a valid frame of every type
// (sampleMessages), its common corruptions, and a header announcing far
// more than follows. Run in CI as a short smoke (-fuzz FuzzDecodeFrame
// -fuzztime 5s) and longer by hand.
func FuzzDecodeFrame(f *testing.F) {
	for _, valid := range sampleFrames(f) {
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		flipped := make([]byte, len(valid))
		copy(flipped, valid)
		flipped[len(flipped)/2] ^= 0x10
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("junk"))
	f.Add([]byte{frameMagic, frameVersion, FrameSegment, 0, 0, 0, 0, 0})
	f.Add(oversizedHeader)

	f.Fuzz(func(t *testing.T, data []byte) {
		decodeFrameSafely(t, data)
	})
}

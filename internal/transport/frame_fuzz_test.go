package transport

import (
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

// decodeFrameSafely requires that DecodeFrame and the typed payload decoders
// never panic and never return (nil, nil) on any input, and that whatever
// they accept the encoder can write back in a form they accept again: the
// codec reads no value it cannot carry.
func decodeFrameSafely(t testing.TB, data []byte) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("frame decode panicked on %d bytes: %v", len(data), p)
		}
	}()
	frame, err := DecodeFrame(data)
	if err != nil {
		return
	}
	if frame == nil {
		t.Fatalf("nil frame with nil error on %d bytes", len(data))
	}
	msg, err := decodeTyped(t, frame.Type, frame.Payload)
	if err != nil {
		return
	}
	again := encodeFrame(t, msg)
	if _, err := decodeTyped(t, frame.Type, again[FrameHeaderSize:]); err != nil {
		t.Fatalf("re-encoded %T is refused: %v", msg, err)
	}
}

// TestDecodeFrameNeverPanics drives the frame decoder through every
// truncation and every single-bit flip of each valid frame type, plus
// degenerate inputs. Corruption must yield an error or a valid decode —
// never a panic, never (nil, nil).
func TestDecodeFrameNeverPanics(t *testing.T) {
	for name, valid := range sampleFrames(t) {
		t.Run(name, func(t *testing.T) {
			for n := 0; n < len(valid); n++ {
				decodeFrameSafely(t, valid[:n])
				// Every strict truncation must fail: either the header is
				// short or the payload is shorter than the header claims.
				if _, err := DecodeFrame(valid[:n]); err == nil {
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
			// Trailing garbage desynchronizes stream framing: rejected.
			if _, err := DecodeFrame(append(append([]byte{}, valid...), 0x00)); err == nil {
				t.Fatal("trailing byte accepted")
			}
		})
	}

	degenerate := [][]byte{
		nil,
		{},
		{frameMagic},
		{frameMagic, frameVersion, FrameQuery, 0, 0xff, 0xff, 0xff, 0xff}, // oversized length
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
	}
	for _, d := range degenerate {
		decodeFrameSafely(t, d)
		if _, err := DecodeFrame(d); err == nil {
			t.Fatalf("degenerate input %v decoded without error", d)
		}
	}
}

// FuzzDecodeFrame lets the fuzzer search for inputs that panic the framing
// layer or the typed payload decoders, seeded with a valid frame of every
// type (sampleMessages) and its common corruptions. Run in CI as a short smoke
// (-fuzz FuzzDecodeFrame -fuzztime 5s) and longer by hand.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		decodeFrameSafely(t, data)
	})
}

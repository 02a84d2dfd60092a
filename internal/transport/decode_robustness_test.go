package transport

import (
	"bytes"
	"strings"
	"testing"

	"pinot/internal/pql"
	"pinot/internal/qctx"
	"pinot/internal/query"
)

// sampleEncoded returns a realistic encoded response to mutate.
func sampleEncoded(t testing.TB) []byte {
	t.Helper()
	inter := query.NewAggIntermediate([]pql.Expression{
		{IsAgg: true, Func: pql.Count, Column: "*"},
		{IsAgg: true, Func: pql.Sum, Column: "clicks"},
	})
	inter.Groups.SetState(0, 0, query.AggState{Count: 42})
	inter.Groups.SetState(0, 1, query.AggState{Sum: 3.5})
	data, err := EncodeResponse(&QueryResponse{Result: inter, Exceptions: []string{"warn"}})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// decodeSafely requires that DecodeResponse never panics and never returns
// a nil response alongside a nil error.
func decodeSafely(t testing.TB, data []byte) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("DecodeResponse panicked on %d bytes: %v", len(data), p)
		}
	}()
	resp, err := DecodeResponse(data)
	if err == nil && resp == nil {
		t.Fatalf("nil response with nil error on %d bytes", len(data))
	}
}

// TestDecodeResponseNeverPanics drives DecodeResponse with every
// truncation and every single-bit flip of a valid payload, plus assorted
// degenerate inputs. Corrupted bytes must produce an error (or, for bit
// flips that keep the stream well-formed, a decoded response) — never a
// panic.
func TestDecodeResponseNeverPanics(t *testing.T) {
	valid := sampleEncoded(t)

	for n := 0; n < len(valid); n++ {
		decodeSafely(t, valid[:n])
		if n < len(valid)-1 {
			// Every strict truncation must fail: the stream is incomplete.
			if _, err := DecodeResponse(valid[:n]); err == nil && n > 0 {
				t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(valid))
			}
		}
	}

	for i := 0; i < len(valid); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := make([]byte, len(valid))
			copy(mut, valid)
			mut[i] ^= 1 << bit
			decodeSafely(t, mut)
		}
	}

	degenerate := [][]byte{
		nil,
		{},
		{0x00},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		// A result whose first count claims far more than the body holds.
		{0x01, 0x00, 0xff, 0xff, 0xff, 0xff, 0x07},
	}
	for _, d := range degenerate {
		decodeSafely(t, d)
		if _, err := DecodeResponse(d); err == nil {
			t.Fatalf("degenerate input %v decoded without error", d)
		}
	}
}

// sampleResponses returns whole encoded responses over every result shape of
// sampleMessages (aggregation, selection with a multi-value cell, group-by
// with distinct sets, percentile values and expression arguments), each with
// exceptions and a trace, plus one without a result.
func sampleResponses(t testing.TB) [][]byte {
	t.Helper()
	final := sampleMessages()["final"].(*FinalFrame)
	resps := []*QueryResponse{{Exceptions: []string{"no result"}}}
	for _, m := range sampleMessages() {
		if sf, ok := m.(*SegmentFrame); ok {
			resps = append(resps, &QueryResponse{Result: sf.Result, Exceptions: final.Exceptions, Trace: final.Trace})
		}
	}
	out := make([][]byte, len(resps))
	for i, r := range resps {
		data, err := EncodeResponse(r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out
}

// FuzzDecodeResponse lets the fuzzer search for panicking inputs, seeded
// with a valid payload of every result shape and its common corruptions.
// Whatever decodes must encode again: the decoder accepts no value the
// encoder refuses.
func FuzzDecodeResponse(f *testing.F) {
	for _, valid := range sampleResponses(f) {
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)/3] ^= 0x80
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("junk"))
	// A trailer naming a phase the ledger has not is refused.
	unknown := unknownPhase(f, &QueryResponse{Trace: qctx.Trace{qctx.PhaseQueue: 5}})
	if _, err := DecodeResponse(unknown); err == nil || !strings.Contains(err.Error(), "unknown trace phase") {
		f.Fatalf("a trace of an unknown phase: err = %v", err)
	}
	f.Add(unknown)

	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeResponse(data)
		if err == nil && resp == nil {
			t.Fatalf("nil response with nil error on %d bytes", len(data))
		}
		if err != nil {
			return
		}
		if _, err := EncodeResponse(resp); err != nil {
			t.Fatalf("decoded response does not encode: %v", err)
		}
	})
}

// unknownPhase encodes msg, whose trace charges the queue phase, with that
// phase's name misspelt.
func unknownPhase(t testing.TB, msg any) []byte {
	t.Helper()
	var b []byte
	if r, ok := msg.(*QueryResponse); ok {
		var err error
		if b, err = EncodeResponse(r); err != nil {
			t.Fatal(err)
		}
	} else {
		b = encodeFrame(t, msg)
	}
	if !bytes.Contains(b, []byte("queue")) {
		t.Fatal("no queue phase to misspell")
	}
	return bytes.Replace(b, []byte("queue"), []byte("qveue"), 1)
}

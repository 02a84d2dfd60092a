package transport

import (
	"fmt"
	"time"

	"pinot/internal/qctx"
	"pinot/internal/query"
	"pinot/internal/wire"
)

// The nine message envelopes of the data plane: one hand-written encoder and
// one decoder per message, no reflection. The byte primitives (varints, float
// bits, counts checked before anything is allocated for them, the nesting
// cap) are internal/wire's; the layout of an Intermediate and of Stats sits
// beside those types in internal/query/wire.go, and the envelopes here call
// into it. DESIGN.md ("Network transport") has the byte layout of every
// message. What this file adds to the rules stated there: the decoders copy
// what they keep (strings, the commit blob), so a message never pins the
// frame buffer it was read from.

func encodeTrace(e *wire.Encoder, t qctx.Trace) {
	e.Count(len(t))
	for p, d := range t {
		e.Str(string(p))
		e.Varint(int64(d))
	}
}

func encodeQueryRequest(e *wire.Encoder, r *QueryRequest) {
	e.Str(r.Resource)
	e.Str(r.PQL)
	e.Strs(r.Segments)
	e.Str(r.Tenant)
	e.Varint(r.TimeoutMillis)
	e.Str(r.QueryID)
	e.Varint(r.BudgetMillis)
}

func encodeSegmentFrame(e *wire.Encoder, seq int, res *query.Intermediate) {
	e.Varint(int64(seq))
	if res == nil {
		e.Fail("segment frame %d has no result", seq)
		return
	}
	query.AppendIntermediate(e, res)
}

func encodeFinalFrame(e *wire.Encoder, f *FinalFrame) {
	e.Varint(int64(f.Frames))
	e.Strs(f.Exceptions)
	encodeTrace(e, f.Trace)
	query.AppendStats(e, &f.Stats)
}

func encodeQueryResponse(e *wire.Encoder, r *QueryResponse) {
	e.Bool(r.Result != nil)
	if r.Result != nil {
		query.AppendIntermediate(e, r.Result)
	}
	e.Strs(r.Exceptions)
	encodeTrace(e, r.Trace)
}

func encodeConsumedRequest(e *wire.Encoder, r *SegmentConsumedRequest) {
	e.Str(r.Segment)
	e.Str(r.Resource)
	e.Str(r.Instance)
	e.Varint(r.Offset)
}

func encodeConsumedResponse(e *wire.Encoder, r *SegmentConsumedResponse) {
	e.Str(string(r.Action))
	e.Varint(r.TargetOffset)
}

func encodeCommitRequest(e *wire.Encoder, r *SegmentCommitRequest) {
	e.Str(r.Segment)
	e.Str(r.Resource)
	e.Str(r.Instance)
	e.Varint(r.Offset)
	e.Blob(r.Blob)
}

func encodeCommitResponse(e *wire.Encoder, r *SegmentCommitResponse) {
	e.Bool(r.Success)
	e.Str(r.Reason)
}

// encodeErr names the transport as the layer that refused a message.
func encodeErr(e *wire.Encoder) error {
	if err := e.Err(); err != nil {
		return fmt.Errorf("transport: encode: %w", err)
	}
	return nil
}

// finish reports a payload's verdict: the first malformed field, or trailing
// bytes. Every rejected payload counts in the decode-failure metric.
func finish(d *wire.Decoder) error {
	if err := d.Finish(); err != nil {
		wireMet.Load().decodeFails.Inc()
		return fmt.Errorf("transport: decode: %w", err)
	}
	return nil
}

func decodeTrace(d *wire.Decoder) qctx.Trace {
	n := d.Count(2)
	if n == 0 {
		return nil
	}
	t := make(qctx.Trace, n)
	for i := 0; i < n; i++ {
		p := qctx.Phase(d.Str())
		t[p] = time.Duration(d.Varint())
	}
	return t
}

func decodeQueryRequest(d *wire.Decoder) *QueryRequest {
	return &QueryRequest{
		Resource:      d.Str(),
		PQL:           d.Str(),
		Segments:      d.Strs(),
		Tenant:        d.Str(),
		TimeoutMillis: d.Varint(),
		QueryID:       d.Str(),
		BudgetMillis:  d.Varint(),
	}
}

func decodeSegmentFrame(d *wire.Decoder) *SegmentFrame {
	return &SegmentFrame{Seq: d.Int(), Result: query.ReadIntermediate(d)}
}

func decodeFinalFrame(d *wire.Decoder) *FinalFrame {
	f := &FinalFrame{Frames: d.Int(), Exceptions: d.Strs(), Trace: decodeTrace(d)}
	query.ReadStats(d, &f.Stats)
	if f.Frames < 0 {
		d.Fail("final frame claims %d segment frames", f.Frames)
	}
	return f
}

func decodeQueryResponse(d *wire.Decoder) *QueryResponse {
	r := &QueryResponse{}
	if d.Bool() {
		r.Result = query.ReadIntermediate(d)
	}
	r.Exceptions = d.Strs()
	r.Trace = decodeTrace(d)
	return r
}

func decodeConsumedRequest(d *wire.Decoder) *SegmentConsumedRequest {
	return &SegmentConsumedRequest{Segment: d.Str(), Resource: d.Str(), Instance: d.Str(), Offset: d.Varint()}
}

func decodeConsumedResponse(d *wire.Decoder) *SegmentConsumedResponse {
	return &SegmentConsumedResponse{Action: SegmentConsumedAction(d.Str()), TargetOffset: d.Varint()}
}

func decodeCommitRequest(d *wire.Decoder) *SegmentCommitRequest {
	r := &SegmentCommitRequest{Segment: d.Str(), Resource: d.Str(), Instance: d.Str(), Offset: d.Varint()}
	if blob := d.Bytes(); len(blob) > 0 {
		r.Blob = append([]byte(nil), blob...)
	}
	return r
}

func decodeCommitResponse(d *wire.Decoder) *SegmentCommitResponse {
	return &SegmentCommitResponse{Success: d.Bool(), Reason: d.Str()}
}

package transport

import (
	"io"

	"pinot/internal/qctx"
	"pinot/internal/query"
	"pinot/internal/wire"
)

// The TCP data plane speaks internal/wire's frames under magic 'P'. A query
// is one FrameQuery; the response is one FrameSegment (the server's segments
// folded into one intermediate, sequence 0) followed by one FrameFinal
// trailer counting it, or a FrameError if the query failed outright. Any
// other response is a protocol error, and the client drops the connection.
// Controller completion ops use the request/response frame pairs below on
// the same framing. Payloads are the binary codec of codec.go.

const (
	frameMagic   = 0x50 // 'P'
	frameVersion = 4    // 1 carried gob payloads, 2 a group-by as one entry per group, 3 an aggregation without GROUP BY as a state per function
)

// Frame types.
const (
	FrameQuery        uint8 = 1 // QueryRequest
	FrameSegment      uint8 = 2 // SegmentFrame
	FrameFinal        uint8 = 3 // FinalFrame
	FrameError        uint8 = 4 // ErrorFrame
	FrameConsumed     uint8 = 5 // SegmentConsumedRequest
	FrameConsumedResp uint8 = 6 // SegmentConsumedResponse
	FrameCommit       uint8 = 7 // SegmentCommitRequest
	FrameCommitResp   uint8 = 8 // SegmentCommitResponse
)

// dataPlane is the data plane's protocol. Its frames, their bytes and the
// ones it refuses are counted in the transport metrics.
var dataPlane = wire.Protocol{
	Name: "transport", Magic: frameMagic, Version: frameVersion, Types: FrameCommitResp,
	Sent: func(n int) {
		met := wireMet.Load()
		met.framesSent.Inc()
		met.bytesSent.Add(int64(n))
	},
	Received: func(n int) {
		met := wireMet.Load()
		met.framesRecv.Inc()
		met.bytesRecv.Add(int64(n))
	},
	Refused: func() { wireMet.Load().decodeFails.Inc() },
}

// sendFrame sends one data-plane frame whose payload fill encodes.
func sendFrame(w io.Writer, typ uint8, fill func(*wire.Encoder)) (encoded bool, err error) {
	return dataPlane.Send(w, typ, fill)
}

// SegmentFrame carries a response's intermediate. A response has one, with
// Seq 0; the client refuses any other.
type SegmentFrame struct {
	Seq    int
	Result *query.Intermediate
}

// FinalFrame is the trailer of a response: how many segment frames preceded
// it (1; any other count is refused), server-side exceptions and trace, and
// stats the client folds into the result (the server folds its own into the
// segment frame and sends these zero).
type FinalFrame struct {
	Frames     int
	Exceptions []string
	Trace      qctx.Trace
	Stats      query.Stats
}

// ErrorFrame is the response to a query that failed at the server.
type ErrorFrame struct {
	Message string
}

// The typed payload decoders. Payloads arrive off the network, so any byte
// sequence yields a message or an error, never a panic, and never allocates
// more than a constant factor of its own length.

// DecodeQueryFrame decodes a FrameQuery payload.
func DecodeQueryFrame(payload []byte) (*QueryRequest, error) {
	d := wire.NewDecoder(payload)
	req := decodeQueryRequest(&d)
	if err := finish(&d); err != nil {
		return nil, err
	}
	return req, nil
}

// DecodeSegmentFrame decodes a FrameSegment payload.
func DecodeSegmentFrame(payload []byte) (*SegmentFrame, error) {
	d := wire.NewDecoder(payload)
	sf := decodeSegmentFrame(&d)
	if err := finish(&d); err != nil {
		return nil, err
	}
	return sf, nil
}

// DecodeFinalFrame decodes a FrameFinal payload.
func DecodeFinalFrame(payload []byte) (*FinalFrame, error) {
	d := wire.NewDecoder(payload)
	ff := decodeFinalFrame(&d)
	if err := finish(&d); err != nil {
		return nil, err
	}
	return ff, nil
}

// DecodeErrorFrame decodes a FrameError payload.
func DecodeErrorFrame(payload []byte) (*ErrorFrame, error) {
	d := wire.NewDecoder(payload)
	ef := &ErrorFrame{Message: d.Str()}
	if err := finish(&d); err != nil {
		return nil, err
	}
	return ef, nil
}

package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"pinot/internal/qctx"
	"pinot/internal/query"
	"pinot/internal/wire"
)

// The TCP data plane speaks length-prefixed frames. Every frame starts with
// an 8-byte header:
//
//	offset 0: magic 0x50 ('P')
//	offset 1: protocol version (frameVersion)
//	offset 2: frame type (Frame* constants)
//	offset 3: reserved, must be zero
//	offset 4: uint32 big-endian payload length
//
// followed by a payload in the binary codec of codec.go, whose message depends
// on the frame type. A query is one FrameQuery; the response is zero or more
// FrameSegment frames (one per emitted per-segment intermediate,
// sequence-numbered contiguously from zero) terminated by exactly one
// FrameFinal trailer, or a FrameError if the query failed outright. Controller
// completion ops use the request/response frame pairs below on the same
// framing.

// FrameHeaderSize is the fixed byte length of a frame header.
const FrameHeaderSize = 8

const (
	frameMagic   = 0x50 // 'P'
	frameVersion = 4    // 1 carried gob payloads, 2 a group-by as one entry per group, 3 an aggregation without GROUP BY as a state per function
)

// MaxFramePayload caps a single frame's payload; decoders reject anything
// larger before allocating, so a hostile or corrupt length prefix cannot
// balloon memory.
const MaxFramePayload = 64 << 20

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

// SegmentFrame carries one per-segment intermediate of a streamed response.
// Seq numbers are contiguous from zero within a response; the merger uses
// them to reject duplicates and reorder defensively.
type SegmentFrame struct {
	Seq    int
	Result *query.Intermediate
}

// FinalFrame is the trailer of a streamed response: how many segment frames
// preceded it (so truncation is detectable), server-side exceptions and
// trace, and trailer stats not attributable to any one emitted segment
// (pruning work).
type FinalFrame struct {
	Frames     int
	Exceptions []string
	Trace      qctx.Trace
	Stats      query.Stats
}

// ErrorFrame aborts a streamed response with a server-side query error.
type ErrorFrame struct {
	Message string
}

// Frame is one decoded wire frame: a header plus its raw payload.
type Frame struct {
	Type    uint8
	Payload []byte
}

// parseHeader validates a frame header and returns (type, payload length).
func parseHeader(hdr []byte) (uint8, int, error) {
	if len(hdr) < FrameHeaderSize {
		return 0, 0, fmt.Errorf("transport: short frame header (%d bytes)", len(hdr))
	}
	if hdr[0] != frameMagic {
		return 0, 0, fmt.Errorf("transport: bad frame magic 0x%02x", hdr[0])
	}
	if hdr[1] != frameVersion {
		return 0, 0, fmt.Errorf("transport: unsupported frame version %d", hdr[1])
	}
	typ := hdr[2]
	if typ < FrameQuery || typ > FrameCommitResp {
		return 0, 0, fmt.Errorf("transport: unknown frame type %d", typ)
	}
	if hdr[3] != 0 {
		return 0, 0, fmt.Errorf("transport: nonzero reserved byte 0x%02x", hdr[3])
	}
	n := binary.BigEndian.Uint32(hdr[4:])
	if n > MaxFramePayload {
		return 0, 0, fmt.Errorf("transport: frame payload %d exceeds max %d", n, MaxFramePayload)
	}
	return typ, int(n), nil
}

// ---- writing ----

// newFrame returns a pooled encoder (wire.GetEncoder: a frame is encoded
// straight into a recycled buffer, behind its header, and written to the
// socket from it) positioned after the header of a frame of the given type.
// The caller appends the payload, calls frameBytes, then Release.
func newFrame(typ uint8) *wire.Encoder {
	e := wire.GetEncoder()
	e.Raw(frameMagic, frameVersion, typ, 0, 0, 0, 0, 0)
	return e
}

// frameBytes patches the payload length into the header and returns the whole
// frame, valid until Release. It fails, with nothing sent, when the payload
// held a value the codec does not carry or outgrew MaxFramePayload.
func frameBytes(e *wire.Encoder) ([]byte, error) {
	if err := encodeErr(e); err != nil {
		return nil, err
	}
	frame := e.Bytes()
	n := len(frame) - FrameHeaderSize
	if n > MaxFramePayload {
		return nil, fmt.Errorf("transport: frame payload %d exceeds max %d", n, MaxFramePayload)
	}
	binary.BigEndian.PutUint32(frame[4:], uint32(n))
	return frame, nil
}

// sendFrame encodes one frame with fill, hands it to a single Write and
// counts it in the transport metrics. encoded reports whether the frame was
// well-formed: when false nothing reached w and the stream is still in step,
// when true a non-nil err is a write failure.
func sendFrame(w io.Writer, typ uint8, fill func(*wire.Encoder)) (encoded bool, err error) {
	e := newFrame(typ)
	defer e.Release()
	fill(e)
	frame, err := frameBytes(e)
	if err != nil {
		return false, err
	}
	if _, err := w.Write(frame); err != nil {
		return true, err
	}
	met := wireMet.Load()
	met.framesSent.Inc()
	met.bytesSent.Add(int64(len(frame)))
	return true, nil
}

// ---- reading ----

// frameReader reads the frames of one connection, or of one round trip, into
// one reused buffer. The decoders copy what they keep, so a payload only has
// to stay valid until the next read.
type frameReader struct {
	buf []byte
}

var frameReaderPool = sync.Pool{New: func() any { return new(frameReader) }}

// maxPooledBuf is the largest read buffer kept: one huge selection response
// or segment blob must not pin its backing array forever.
const maxPooledBuf = 1 << 20

func (fr *frameReader) release() {
	if cap(fr.buf) <= maxPooledBuf {
		frameReaderPool.Put(fr)
	}
}

// read reads one frame off the wire, counting bytes and frames. The header is
// validated before the buffer grows to the payload it announces; a bad header
// and a payload cut short both count as decode failures.
func (fr *frameReader) read(r io.Reader) (typ uint8, payload []byte, err error) {
	if cap(fr.buf) < FrameHeaderSize {
		fr.buf = make([]byte, 512)
	}
	hdr := fr.buf[:FrameHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	typ, n, err := parseHeader(hdr)
	if err != nil {
		wireMet.Load().decodeFails.Inc()
		return 0, nil, err
	}
	if cap(fr.buf) < n {
		fr.buf = make([]byte, n)
	}
	payload = fr.buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		wireMet.Load().decodeFails.Inc()
		return 0, nil, fmt.Errorf("transport: truncated frame payload: %w", err)
	}
	met := wireMet.Load()
	met.framesRecv.Inc()
	met.bytesRecv.Add(int64(FrameHeaderSize + n))
	return typ, payload, nil
}

// DecodeFrame parses a single complete frame from a byte slice. This is the
// fuzz surface: any input must produce either a frame or an error — never a
// panic, never (nil, nil) — and the input must contain exactly one frame
// (trailing garbage is an error, since on a stream it would desynchronize
// framing).
func DecodeFrame(data []byte) (*Frame, error) {
	typ, n, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	if len(data)-FrameHeaderSize < n {
		return nil, fmt.Errorf("transport: truncated frame: have %d payload bytes, header says %d",
			len(data)-FrameHeaderSize, n)
	}
	if len(data)-FrameHeaderSize > n {
		return nil, fmt.Errorf("transport: %d trailing bytes after frame", len(data)-FrameHeaderSize-n)
	}
	return &Frame{Type: typ, Payload: data[FrameHeaderSize : FrameHeaderSize+n]}, nil
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

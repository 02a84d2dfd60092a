package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"sync"

	"pinot/internal/qctx"
	"pinot/internal/query"
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
// followed by a gob payload whose Go type depends on the frame type. A query
// is one FrameQuery; the response is zero or more FrameSegment frames (one
// per emitted per-segment intermediate, sequence-numbered contiguously from
// zero) terminated by exactly one FrameFinal trailer, or a FrameError if the
// query failed outright. Controller completion ops use the request/response
// frame pairs below on the same framing.

// FrameHeaderSize is the fixed byte length of a frame header.
const FrameHeaderSize = 8

const (
	frameMagic   = 0x50 // 'P'
	frameVersion = 1
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

// AppendFrame serializes a frame header + payload into buf.
func AppendFrame(buf []byte, typ uint8, payload []byte) []byte {
	var hdr [FrameHeaderSize]byte
	hdr[0] = frameMagic
	hdr[1] = frameVersion
	hdr[2] = typ
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(payload)))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// WriteFrame writes one frame and counts it in the transport metrics.
func WriteFrame(w io.Writer, typ uint8, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("transport: frame payload %d exceeds max %d", len(payload), MaxFramePayload)
	}
	buf := encodeBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.Write(AppendFrame(nil, typ, payload))
	_, err := w.Write(buf.Bytes())
	n := buf.Len()
	if buf.Cap() <= maxPooledBuf {
		encodeBufPool.Put(buf)
	}
	if err != nil {
		return err
	}
	met := wireMet.Load()
	met.framesSent.Inc()
	met.bytesSent.Add(int64(n))
	return nil
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

// ReadFrame reads one frame off the wire, counting bytes and frames. It
// validates the header before allocating the payload.
func ReadFrame(r io.Reader) (*Frame, error) {
	var hdr [FrameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	typ, n, err := parseHeader(hdr[:])
	if err != nil {
		wireMet.Load().decodeFails.Inc()
		return nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("transport: truncated frame payload: %w", err)
	}
	met := wireMet.Load()
	met.framesRecv.Inc()
	met.bytesRecv.Add(int64(FrameHeaderSize + n))
	return &Frame{Type: typ, Payload: payload}, nil
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

// gobDecode decodes a frame payload into out with a panic guard: payloads
// arrive off the network, and gob's decoder has historically let hostile
// inputs escape its own recover net.
func gobDecode(payload []byte, out any) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("transport: payload decode panic: %v", p)
		}
		if err != nil {
			wireMet.Load().decodeFails.Inc()
		}
	}()
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(out); err != nil {
		return fmt.Errorf("transport: decode payload: %w", err)
	}
	return nil
}

// encodeBufPool recycles the scratch buffers of gobEncode and WriteFrame.
// Every frame crosses both, so a fresh bytes.Buffer per call pays its growth
// copies on the hot data plane (+1.8–3.8% bytes allocated per query on the
// repository benchmark; EXPERIMENTS.md). Buffers that grew past maxPooledBuf
// are dropped instead of pooled so one huge selection response cannot pin
// its backing array forever.
var encodeBufPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

const maxPooledBuf = 1 << 20

// gobEncode encodes a frame payload through the shared buffer pool. The
// returned slice is freshly allocated and owned by the caller.
func gobEncode(v any) ([]byte, error) {
	buf := encodeBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		encodeBufPool.Put(buf)
		return nil, err
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	if buf.Cap() <= maxPooledBuf {
		encodeBufPool.Put(buf)
	}
	return out, nil
}

// DecodeQueryFrame decodes a FrameQuery payload.
func DecodeQueryFrame(payload []byte) (*QueryRequest, error) {
	var req QueryRequest
	if err := gobDecode(payload, &req); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeSegmentFrame decodes a FrameSegment payload.
func DecodeSegmentFrame(payload []byte) (*SegmentFrame, error) {
	var sf SegmentFrame
	if err := gobDecode(payload, &sf); err != nil {
		return nil, err
	}
	if sf.Result == nil {
		return nil, fmt.Errorf("transport: segment frame %d has no result", sf.Seq)
	}
	return &sf, nil
}

// DecodeFinalFrame decodes a FrameFinal payload.
func DecodeFinalFrame(payload []byte) (*FinalFrame, error) {
	var ff FinalFrame
	if err := gobDecode(payload, &ff); err != nil {
		return nil, err
	}
	if ff.Frames < 0 {
		return nil, fmt.Errorf("transport: final frame claims %d segment frames", ff.Frames)
	}
	return &ff, nil
}

// DecodeErrorFrame decodes a FrameError payload.
func DecodeErrorFrame(payload []byte) (*ErrorFrame, error) {
	var ef ErrorFrame
	if err := gobDecode(payload, &ef); err != nil {
		return nil, err
	}
	return &ef, nil
}

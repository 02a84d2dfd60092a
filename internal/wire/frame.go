package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Every socket of the module speaks length-prefixed frames. A frame is an
// 8-byte header:
//
//	offset 0: magic, naming the protocol
//	offset 1: protocol version
//	offset 2: frame type, from 1 to the protocol's last type
//	offset 3: reserved, must be zero
//	offset 4: uint32 big-endian payload length, at most MaxFramePayload
//
// followed by a payload that holds one message in this package's encoding.
// A Protocol names the magic, version and types; each protocol lays out its
// own messages.

// FrameHeaderSize is the fixed byte length of a frame header.
const FrameHeaderSize = 8

// MaxFramePayload caps a single frame's payload; a longer one is refused
// from its header, before anything is read or allocated for it.
const MaxFramePayload = 64 << 20

// Protocol names one framed protocol and meters its traffic.
type Protocol struct {
	Name    string // the prefix of its errors
	Magic   byte
	Version byte
	Types   byte // frame types run from 1 to Types
	// Sent and Received, when set, hear of every whole frame with its size,
	// header included; Refused of every bad header and payload cut short.
	Sent, Received func(bytes int)
	Refused        func()
}

// parseHeader validates a frame header and returns (type, payload length).
func (p *Protocol) parseHeader(hdr []byte) (byte, int, error) {
	switch {
	case hdr[0] != p.Magic:
		return 0, 0, fmt.Errorf("%s: bad frame magic 0x%02x", p.Name, hdr[0])
	case hdr[1] != p.Version:
		return 0, 0, fmt.Errorf("%s: unsupported frame version %d", p.Name, hdr[1])
	case hdr[2] < 1 || hdr[2] > p.Types:
		return 0, 0, fmt.Errorf("%s: unknown frame type %d", p.Name, hdr[2])
	case hdr[3] != 0:
		return 0, 0, fmt.Errorf("%s: nonzero reserved byte 0x%02x", p.Name, hdr[3])
	}
	n := binary.BigEndian.Uint32(hdr[4:])
	if n > MaxFramePayload {
		return 0, 0, fmt.Errorf("%s: frame payload %d exceeds max %d", p.Name, n, MaxFramePayload)
	}
	return hdr[2], int(n), nil
}

// Send encodes one frame of type typ with fill into a pooled buffer, behind
// a header placeholder, patches the payload length in and hands the whole
// frame to a single Write. encoded reports whether the frame was well-formed:
// when false nothing reached w and the stream is still in step, when true a
// non-nil err is a write failure.
func (p *Protocol) Send(w io.Writer, typ byte, fill func(*Encoder)) (encoded bool, err error) {
	e := GetEncoder()
	defer e.Release()
	e.b = append(e.b, p.Magic, p.Version, typ, 0, 0, 0, 0, 0)
	fill(e)
	if e.err != nil {
		return false, fmt.Errorf("%s: encode: %w", p.Name, e.err)
	}
	n := len(e.b) - FrameHeaderSize
	if n > MaxFramePayload {
		return false, fmt.Errorf("%s: frame payload %d exceeds max %d", p.Name, n, MaxFramePayload)
	}
	binary.BigEndian.PutUint32(e.b[4:], uint32(n))
	if _, err := w.Write(e.b); err != nil {
		return true, err
	}
	if p.Sent != nil {
		p.Sent(len(e.b))
	}
	return true, nil
}

// FrameReader reads the frames of one connection, or of one round trip,
// into one reused buffer, or for a frame past bigFrame into the process's
// spare. Decoders copy what they keep, so a payload only has to stay valid
// until the next Read.
type FrameReader struct {
	hdr [FrameHeaderSize]byte
	buf []byte
}

var frameReaderPool = sync.Pool{New: func() any { return new(FrameReader) }}

// GetFrameReader returns a pooled reader; Release returns it.
func GetFrameReader() *FrameReader { return frameReaderPool.Get().(*FrameReader) }

// Release hands the reader back; no payload it returned may be used after.
func (fr *FrameReader) Release() {
	if cap(fr.buf) <= maxPooledBuf {
		frameReaderPool.Put(fr)
	}
}

// bigFrame is the payload length up to which a frame is read into one
// buffer of its announced size. Past it the buffer grows with the bytes that
// arrive, so a header that lies about its length costs at most bigFrame more
// than twice the bytes actually sent.
const bigFrame = 64 << 10

// spareBig is the one buffer past bigFrame the process keeps between frames.
// A reader hands such a buffer here when its next Read starts, so an idle
// connection pins no segment blob, and the next big frame reads into it.
var spareBig atomic.Pointer[[]byte]

// Read reads one frame of protocol p. The header is validated before
// anything is allocated for the payload; a bad header and a payload cut
// short are both refused.
func (fr *FrameReader) Read(r io.Reader, p *Protocol) (typ byte, payload []byte, err error) {
	if cap(fr.buf) > bigFrame {
		if cap(fr.buf) <= maxPooledBuf {
			b := fr.buf
			spareBig.Store(&b)
		}
		fr.buf = nil
	}
	if _, err := io.ReadFull(r, fr.hdr[:]); err != nil {
		return 0, nil, err
	}
	typ, n, err := p.parseHeader(fr.hdr[:])
	if err == nil {
		if payload, err = fr.payload(r, n); err != nil {
			err = fmt.Errorf("%s: truncated frame payload: %w", p.Name, err)
		}
	}
	if err != nil {
		if p.Refused != nil {
			p.Refused()
		}
		return 0, nil, err
	}
	if p.Received != nil {
		p.Received(FrameHeaderSize + n)
	}
	return typ, payload, nil
}

func (fr *FrameReader) payload(r io.Reader, n int) ([]byte, error) {
	if n > bigFrame {
		if b := spareBig.Swap(nil); b != nil && cap(*b) >= n {
			fr.buf = *b
		}
	}
	if n <= bigFrame || n <= cap(fr.buf) {
		if cap(fr.buf) < n {
			fr.buf = make([]byte, max(n, 512))
		}
		_, err := io.ReadFull(r, fr.buf[:n])
		return fr.buf[:n], err
	}
	// Chunks that double with what has arrived, joined once all of it has.
	var chunks [][]byte
	for got := 0; got < n; {
		c := make([]byte, min(max(got, bigFrame), n-got))
		if _, err := io.ReadFull(r, c); err != nil {
			return nil, err
		}
		chunks = append(chunks, c)
		got += len(c)
	}
	fr.buf = bytes.Join(chunks, nil)
	return fr.buf, nil
}

// Server is the accept loop of every listener of the module: each accepted
// connection is handed to the handler on a goroutine of its own and closed
// when the handler returns.
type Server struct {
	handle func(net.Conn)

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer returns a server whose connections handle serves.
func NewServer(handle func(net.Conn)) *Server {
	return &Server{handle: handle, conns: map[net.Conn]struct{}{}}
}

// Serve accepts connections until Close. It blocks; run it in a goroutine.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return errors.New("wire: server closed")
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			if conn != nil {
				conn.Close()
			}
			return nil
		}
		if err != nil {
			s.mu.Unlock()
			return err
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			conn.Close()
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, drops live connections and waits for handlers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	lis := s.lis
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	s.wg.Wait()
}

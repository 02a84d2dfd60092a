package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"pinot/internal/query"
	"pinot/internal/wire"
)

// TCPQueryServer serves the framed query protocol for one server instance:
// FrameQuery in, a stream of FrameSegment frames and one FrameFinal (or a
// FrameError) out. When Controller is set it also answers the segment
// completion frames, which lets one listener serve a controller's data
// plane. Connections handle one request at a time; concurrency comes from
// the client pool holding several connections.
type TCPQueryServer struct {
	Handler    StreamHandler
	Controller ControllerClient

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewTCPQueryServer serves queries via handler (nil is allowed for a pure
// controller endpoint).
func NewTCPQueryServer(handler StreamHandler) *TCPQueryServer {
	return &TCPQueryServer{Handler: handler, conns: map[net.Conn]struct{}{}}
}

// Serve accepts connections until Close. It blocks; run it in a goroutine.
func (s *TCPQueryServer) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return errors.New("transport: server closed")
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, drops live connections and waits for handlers.
func (s *TCPQueryServer) Close() {
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

func (s *TCPQueryServer) serveConn(conn net.Conn) {
	defer conn.Close()
	var fr frameReader // requests arrive one at a time: one buffer serves them all
	for {
		typ, payload, err := fr.read(conn)
		if err != nil {
			return // EOF, reset, or framing violation: drop the connection
		}
		switch typ {
		case FrameQuery:
			err = s.serveQuery(conn, payload)
		case FrameConsumed:
			err = s.serveConsumed(conn, payload)
		case FrameCommit:
			err = s.serveCommit(conn, payload)
		default:
			// A response frame type on the request stream: protocol
			// violation, drop the connection.
			return
		}
		if err != nil {
			return
		}
		if cap(fr.buf) > maxPooledBuf {
			fr.buf = nil // a segment blob came through; do not keep its buffer
		}
	}
}

// writeErrorFrame reports a failed request to the peer; the connection stays
// in step, so only a write failure (returned) drops it.
func writeErrorFrame(conn net.Conn, msg string) error {
	_, err := sendFrame(conn, FrameError, func(e *wire.Encoder) { e.Str(msg) })
	return err
}

func (s *TCPQueryServer) serveQuery(conn net.Conn, payload []byte) error {
	req, err := DecodeQueryFrame(payload)
	if err != nil {
		return err // undecodable request: framing no longer trustworthy
	}
	if s.Handler == nil {
		return writeErrorFrame(conn, "transport: no query handler on this endpoint")
	}
	// The handler runs under a context cancelled if a frame write fails, so
	// a dead broker stops server-side work instead of leaving it running
	// against a closed socket.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var writeErr error
	trailer, err := s.Handler.ExecuteStream(ctx, req, func(seq int, res *query.Intermediate) error {
		// A result the codec cannot carry fails the query with an error
		// frame; only a failed write loses the connection.
		encoded, err := sendFrame(conn, FrameSegment, func(e *wire.Encoder) { encodeSegmentFrame(e, seq, res) })
		if encoded && err != nil {
			writeErr = err
			cancel()
		}
		return err
	})
	if writeErr != nil {
		return writeErr
	}
	if err != nil {
		return writeErrorFrame(conn, err.Error())
	}
	encoded, err := sendFrame(conn, FrameFinal, func(e *wire.Encoder) { encodeFinalFrame(e, trailer) })
	if !encoded {
		return writeErrorFrame(conn, err.Error())
	}
	return err
}

func (s *TCPQueryServer) serveConsumed(conn net.Conn, payload []byte) error {
	d := wire.NewDecoder(payload)
	req := decodeConsumedRequest(&d)
	if err := finish(&d); err != nil {
		return err
	}
	if s.Controller == nil {
		return writeErrorFrame(conn, "transport: no controller on this endpoint")
	}
	resp, err := s.Controller.SegmentConsumed(context.Background(), req)
	if err != nil {
		return writeErrorFrame(conn, err.Error())
	}
	_, err = sendFrame(conn, FrameConsumedResp, func(e *wire.Encoder) { encodeConsumedResponse(e, resp) })
	return err
}

func (s *TCPQueryServer) serveCommit(conn net.Conn, payload []byte) error {
	d := wire.NewDecoder(payload)
	req := decodeCommitRequest(&d)
	if err := finish(&d); err != nil {
		return err
	}
	if s.Controller == nil {
		return writeErrorFrame(conn, "transport: no controller on this endpoint")
	}
	resp, err := s.Controller.CommitSegment(context.Background(), req)
	if err != nil {
		return writeErrorFrame(conn, err.Error())
	}
	_, err = sendFrame(conn, FrameCommitResp, func(e *wire.Encoder) { encodeCommitResponse(e, resp) })
	return err
}

// TCPClient is a ServerClient that speaks the framed protocol to one
// destination address through a shared connection pool.
type TCPClient struct {
	Addr string
	Pool *Pool
}

// NewTCPClient returns a client for one destination.
func NewTCPClient(addr string, pool *Pool) *TCPClient { return &TCPClient{Addr: addr, Pool: pool} }

// Execute sends the query and merges the streamed response incrementally.
// Context cancellation or deadline expiry mid-stream surfaces as an error
// (the connection is discarded, not pooled).
func (c *TCPClient) Execute(ctx context.Context, req *QueryRequest) (*QueryResponse, error) {
	conn, err := c.Pool.Get(ctx, c.Addr)
	if err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(ctx, conn, req)
	if err != nil {
		c.Pool.Discard(conn)
		return nil, err
	}
	c.Pool.Put(c.Addr, conn)
	return resp, nil
}

// errQueryFailed marks server-reported query errors (FrameError), as opposed
// to transport failures; both surface as errors to the broker, which treats
// them identically (retry elsewhere, count an exception).
var errQueryFailed = errors.New("transport: server query error")

// contextCaused maps an I/O error back to the context error when the context
// is what killed the I/O. The connection deadline is set to the context
// deadline, so the socket timer can fire a moment before the context's own
// timer does; a timeout at or past the deadline is budget expiry, not a
// transport fault.
func contextCaused(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
			return context.DeadlineExceeded
		}
	}
	return nil
}

func (c *TCPClient) roundTrip(ctx context.Context, conn net.Conn, req *QueryRequest) (*QueryResponse, error) {
	// Cancellation becomes a past connection deadline, unblocking any
	// in-flight read/write immediately.
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
	defer stop()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	} else {
		conn.SetDeadline(time.Time{})
	}

	if encoded, err := sendFrame(conn, FrameQuery, func(e *wire.Encoder) { encodeQueryRequest(e, req) }); err != nil {
		if !encoded {
			return nil, err
		}
		if ctxErr := contextCaused(ctx, err); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("transport: send query: %w", err)
	}
	// Every frame of the response is read into one buffer; the decoders
	// copy what the result keeps.
	fr := frameReaderPool.Get().(*frameReader)
	defer fr.release()
	merger := NewStreamMerger()
	for {
		typ, payload, err := fr.read(conn)
		if err != nil {
			if ctxErr := contextCaused(ctx, err); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, fmt.Errorf("transport: read response: %w", err)
		}
		switch typ {
		case FrameSegment:
			sf, err := DecodeSegmentFrame(payload)
			if err != nil {
				return nil, err
			}
			if err := merger.Add(sf); err != nil {
				return nil, err
			}
		case FrameFinal:
			ff, err := DecodeFinalFrame(payload)
			if err != nil {
				return nil, err
			}
			result, err := merger.Finish(ff)
			if err != nil {
				return nil, err
			}
			// The frames balanced, but the connection is reusable only if
			// the cancellation func can no longer touch it: once it has
			// fired (or is about to) its past deadline may land after
			// the connection is back in the pool.
			if !stop() {
				return nil, ctx.Err()
			}
			conn.SetDeadline(time.Time{})
			return &QueryResponse{Result: result, Exceptions: ff.Exceptions, Trace: ff.Trace}, nil
		case FrameError:
			ef, err := DecodeErrorFrame(payload)
			if err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("%w: %s", errQueryFailed, ef.Message)
		default:
			return nil, fmt.Errorf("transport: unexpected frame type %d in query response", typ)
		}
	}
}

// NewTCPRegistry resolves instance names to TCP clients via resolve
// (instance → dial address), sharing one pool across destinations. Unknown
// instances report not-found, and the broker routes around them.
func NewTCPRegistry(resolve func(instance string) (string, bool), pool *Pool) Registry {
	return RegistryFunc(func(instance string) (ServerClient, bool) {
		addr, ok := resolve(instance)
		if !ok {
			return nil, false
		}
		return NewTCPClient(addr, pool), true
	})
}

// TCPControllerClient speaks the completion-protocol frames to a
// controller's data-plane listener.
type TCPControllerClient struct {
	Addr string
	Pool *Pool
}

// NewTCPControllerClient returns a completion-protocol client.
func NewTCPControllerClient(addr string, pool *Pool) *TCPControllerClient {
	return &TCPControllerClient{Addr: addr, Pool: pool}
}

// completionCall sends one request frame built by fill and hands the payload
// of the matching response frame to read.
func (c *TCPControllerClient) completionCall(ctx context.Context, reqType, respType uint8, fill func(*wire.Encoder), read func(*wire.Decoder)) error {
	conn, err := c.Pool.Get(ctx, c.Addr)
	if err != nil {
		return err
	}
	if err := c.doCall(ctx, conn, reqType, respType, fill, read); err != nil {
		c.Pool.Discard(conn)
		return err
	}
	c.Pool.Put(c.Addr, conn)
	return nil
}

func (c *TCPControllerClient) doCall(ctx context.Context, conn net.Conn, reqType, respType uint8, fill func(*wire.Encoder), read func(*wire.Decoder)) error {
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	} else {
		conn.SetDeadline(time.Time{})
	}
	if _, err := sendFrame(conn, reqType, fill); err != nil {
		return err
	}
	var fr frameReader
	typ, payload, err := fr.read(conn)
	if err != nil {
		return err
	}
	switch typ {
	case respType:
		d := wire.NewDecoder(payload)
		read(&d)
		if err := finish(&d); err != nil {
			return err
		}
		conn.SetDeadline(time.Time{})
		return nil
	case FrameError:
		ef, err := DecodeErrorFrame(payload)
		if err != nil {
			return err
		}
		return fmt.Errorf("%w: %s", errQueryFailed, ef.Message)
	default:
		return fmt.Errorf("transport: unexpected frame type %d in completion response", typ)
	}
}

// SegmentConsumed implements ControllerClient.
func (c *TCPControllerClient) SegmentConsumed(ctx context.Context, req *SegmentConsumedRequest) (*SegmentConsumedResponse, error) {
	var resp *SegmentConsumedResponse
	err := c.completionCall(ctx, FrameConsumed, FrameConsumedResp,
		func(e *wire.Encoder) { encodeConsumedRequest(e, req) },
		func(d *wire.Decoder) { resp = decodeConsumedResponse(d) })
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// CommitSegment implements ControllerClient.
func (c *TCPControllerClient) CommitSegment(ctx context.Context, req *SegmentCommitRequest) (*SegmentCommitResponse, error) {
	var resp *SegmentCommitResponse
	err := c.completionCall(ctx, FrameCommit, FrameCommitResp,
		func(e *wire.Encoder) { encodeCommitRequest(e, req) },
		func(d *wire.Decoder) { resp = decodeCommitResponse(d) })
	if err != nil {
		return nil, err
	}
	return resp, nil
}

var (
	_ ServerClient     = (*TCPClient)(nil)
	_ ControllerClient = (*TCPControllerClient)(nil)
)

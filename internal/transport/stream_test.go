package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"pinot/internal/pql"
	"pinot/internal/query"
	"pinot/internal/wire"
)

// countFrame builds a segment frame carrying a single count(*) partial.
func countFrame(seq int, n int64) *SegmentFrame {
	inter := query.NewAggIntermediate([]pql.Expression{{IsAgg: true, Func: pql.Count, Column: "*"}})
	inter.Groups.SetState(0, 0, query.AggState{Count: n})
	return &SegmentFrame{Seq: seq, Result: inter}
}

func mergedCount(t *testing.T, res *query.Intermediate) int64 {
	t.Helper()
	if res == nil || res.Groups.Len() != 1 {
		t.Fatalf("bad merged result: %+v", res)
	}
	return res.Groups.State(0, 0).Count
}

func TestStreamMergerInOrder(t *testing.T) {
	m := NewStreamMerger()
	for i := 0; i < 3; i++ {
		if err := m.Add(countFrame(i, 10)); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}
	res, err := m.Finish(&FinalFrame{Frames: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := mergedCount(t, res); got != 30 {
		t.Fatalf("count = %d, want 30", got)
	}
}

// TestStreamMergerReorder: the engine emits frames in sequence order over one
// ordered connection, so a reordered frame is a corrupt stream. It is
// refused, and the refusal leaves the merger where it was.
func TestStreamMergerReorder(t *testing.T) {
	m := NewStreamMerger()
	if err := m.Add(countFrame(1, 2)); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("want out-of-order error, got %v", err)
	}
	for seq := 0; seq < 2; seq++ {
		if err := m.Add(countFrame(seq, int64(seq+1))); err != nil {
			t.Fatalf("the refused frame moved the merger: add %d: %v", seq, err)
		}
	}
	res, err := m.Finish(&FinalFrame{Frames: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := mergedCount(t, res); got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
}

// TestStreamMergerDetectsMissingBelowBuffered: a frame that arrives after a
// gap is refused at once, and the trailer still reports the stream as
// truncated, so a missing frame below it is never merged over.
func TestStreamMergerDetectsMissingBelowBuffered(t *testing.T) {
	m := NewStreamMerger()
	if err := m.Add(countFrame(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(countFrame(2, 1)); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("want out-of-order error, got %v", err)
	}
	if _, err := m.Finish(&FinalFrame{Frames: 3}); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("want truncation error, got %v", err)
	}
}

func TestStreamMergerRejectsDuplicates(t *testing.T) {
	m := NewStreamMerger()
	if err := m.Add(countFrame(0, 1)); err != nil {
		t.Fatal(err)
	}
	// Duplicate of an applied frame.
	if err := m.Add(countFrame(0, 1)); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("want duplicate error, got %v", err)
	}
}

func TestStreamMergerRejectsBadFrames(t *testing.T) {
	m := NewStreamMerger()
	if err := m.Add(&SegmentFrame{Seq: 0, Result: nil}); err == nil {
		t.Fatal("nil result accepted")
	}
	if err := m.Add(countFrame(-1, 1)); err == nil {
		t.Fatal("negative seq accepted")
	}
}

// TestStreamMergerDetectsTruncation: the trailer's frame count must catch a
// stream that lost frames (fewer arrived than the server sent).
func TestStreamMergerDetectsTruncation(t *testing.T) {
	m := NewStreamMerger()
	if err := m.Add(countFrame(0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Finish(&FinalFrame{Frames: 3}); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("want truncation error, got %v", err)
	}
}

func TestStreamMergerEmptyStreamIsError(t *testing.T) {
	m := NewStreamMerger()
	if _, err := m.Finish(&FinalFrame{Frames: 0}); err == nil {
		t.Fatal("empty stream produced a result; servers always emit at least one frame")
	}
}

// TestStreamMergerTrailerStats: pruning stats ride the trailer, not any
// segment frame, and must land on the merged result.
func TestStreamMergerTrailerStats(t *testing.T) {
	m := NewStreamMerger()
	sf := countFrame(0, 5)
	sf.Result.Stats.NumDocsScanned = 100
	if err := m.Add(sf); err != nil {
		t.Fatal(err)
	}
	res, err := m.Finish(&FinalFrame{Frames: 1, Stats: query.Stats{SegmentsPrunedByServer: 7, NumDocsScanned: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SegmentsPrunedByServer != 7 {
		t.Fatalf("trailer prune stats lost: %+v", res.Stats)
	}
	if res.Stats.NumDocsScanned != 101 {
		t.Fatalf("trailer stats must merge additively: %+v", res.Stats)
	}
}

// --- TCP client stream behavior against scripted servers ---

// scriptedServer accepts one connection, reads one query frame, then writes
// the scripted raw bytes and optionally leaves the connection open.
func scriptedServer(t *testing.T, script []byte, keepOpen bool) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readFrame(conn); err != nil {
			return
		}
		if len(script) > 0 {
			if _, err := conn.Write(script); err != nil {
				return
			}
		}
		if keepOpen {
			// Hold the conn half-open until the client gives up.
			conn.Read(make([]byte, 1))
		}
	}()
	return lis.Addr().String()
}

// gotFrame is one frame as the data plane's reader returned it.
type gotFrame struct {
	Type    uint8
	Payload []byte
}

// readFrame reads one frame with the production reader, into a buffer of its
// own.
func readFrame(r io.Reader) (*gotFrame, error) {
	var fr wire.FrameReader
	typ, payload, err := fr.Read(r, &dataPlane)
	if err != nil {
		return nil, err
	}
	return &gotFrame{Type: typ, Payload: payload}, nil
}

func tcpExecute(t *testing.T, ctx context.Context, addr string) (*QueryResponse, error) {
	t.Helper()
	pool := NewPool()
	t.Cleanup(pool.Close)
	return NewTCPClient(addr, pool).Execute(ctx, &QueryRequest{Resource: "r", PQL: "SELECT count(*) FROM t"})
}

// encodeFrame returns the wire bytes (header and payload) of one message.
func encodeFrame(t testing.TB, v any) []byte {
	t.Helper()
	var typ uint8
	var fill func(*wire.Encoder)
	switch m := v.(type) {
	case *QueryRequest:
		typ, fill = FrameQuery, func(e *wire.Encoder) { encodeQueryRequest(e, m) }
	case *SegmentFrame:
		typ, fill = FrameSegment, func(e *wire.Encoder) { encodeSegmentFrame(e, m.Seq, m.Result) }
	case *FinalFrame:
		typ, fill = FrameFinal, func(e *wire.Encoder) { encodeFinalFrame(e, m) }
	case *ErrorFrame:
		typ, fill = FrameError, func(e *wire.Encoder) { e.Str(m.Message) }
	case *SegmentConsumedRequest:
		typ, fill = FrameConsumed, func(e *wire.Encoder) { encodeConsumedRequest(e, m) }
	case *SegmentConsumedResponse:
		typ, fill = FrameConsumedResp, func(e *wire.Encoder) { encodeConsumedResponse(e, m) }
	case *SegmentCommitRequest:
		typ, fill = FrameCommit, func(e *wire.Encoder) { encodeCommitRequest(e, m) }
	case *SegmentCommitResponse:
		typ, fill = FrameCommitResp, func(e *wire.Encoder) { encodeCommitResponse(e, m) }
	default:
		t.Fatalf("encodeFrame: no frame type for %T", v)
	}
	var buf bytes.Buffer
	if _, err := sendFrame(&buf, typ, fill); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waitGoroutines waits for the goroutine count to settle back near base;
// streamed responses must not leak watchdogs or handler goroutines.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: base %d, now %d\n%s", base, runtime.NumGoroutine(), buf[:n])
}

// TestTCPClientTruncatedFinalTrailer: a trailer claiming more frames than
// arrived must fail the call, never return a partial merge as complete.
func TestTCPClientTruncatedFinalTrailer(t *testing.T) {
	base := runtime.NumGoroutine()
	script := append(
		encodeFrame(t, countFrame(0, 5)),
		encodeFrame(t, &FinalFrame{Frames: 3})...,
	)
	addr := scriptedServer(t, script, false)
	_, err := tcpExecute(t, context.Background(), addr)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("want truncation error, got %v", err)
	}
	waitGoroutines(t, base)
}

// TestTCPClientDuplicateSeqFromServer: a stream repeating a sequence number
// is corrupt and must be rejected (not double-merged).
func TestTCPClientDuplicateSeqFromServer(t *testing.T) {
	script := append(
		encodeFrame(t, countFrame(0, 5)),
		encodeFrame(t, countFrame(0, 5))...,
	)
	addr := scriptedServer(t, script, false)
	_, err := tcpExecute(t, context.Background(), addr)
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("want duplicate-seq error, got %v", err)
	}
}

// TestTCPClientMidFrameEOF: a connection dying inside a frame body must
// surface as an error promptly — not hang, not yield a partial decode.
func TestTCPClientMidFrameEOF(t *testing.T) {
	whole := encodeFrame(t, countFrame(0, 5))
	addr := scriptedServer(t, whole[:len(whole)/2], false)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	_, err := tcpExecute(t, ctx, addr)
	if err == nil {
		t.Fatal("mid-frame EOF produced a response")
	}
	if time.Since(start) > 4*time.Second {
		t.Fatalf("client hung %v on a torn frame", time.Since(start))
	}
}

// TestTCPClientBudgetExpiryMidStream: when the query budget expires while
// the server is mid-stream (half-open after one frame), the client must
// return the context error within the budget, discard the connection, and
// leak nothing.
func TestTCPClientBudgetExpiryMidStream(t *testing.T) {
	base := runtime.NumGoroutine()
	addr := scriptedServer(t, encodeFrame(t, countFrame(0, 5)), true)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := tcpExecute(t, ctx, addr)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("budget expiry took %v to unblock the stream read", elapsed)
	}
	cancel()
	waitGoroutines(t, base)
}

// TestTCPClientCancelMidStream: explicit cancellation (not deadline) must
// unblock a stream read just as promptly.
func TestTCPClientCancelMidStream(t *testing.T) {
	addr := scriptedServer(t, encodeFrame(t, countFrame(0, 5)), true)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := tcpExecute(t, ctx, addr)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v to unblock the stream read", elapsed)
	}
}

package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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

// --- TCP client response reading against scripted servers ---

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
	return NewTCPClient(addr, pool).Execute(ctx, &QueryRequest{Resource: "r", Query: countT})
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
// responses must not leak watchdogs or handler goroutines.
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

// replyWith sends one query to a server that answers it with script, and
// returns the call's outcome and how many connections the pool kept.
func replyWith(t *testing.T, script []byte) (*QueryResponse, int, error) {
	t.Helper()
	addr := scriptedServer(t, script, true)
	pool := NewPool()
	defer pool.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := NewTCPClient(addr, pool).Execute(ctx, &QueryRequest{Resource: "r", Query: countT})
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return resp, len(pool.idle[addr]), err
}

// refused checks that the reply script failed the call with an error naming
// want, and that its connection was dropped rather than pooled.
func refused(t *testing.T, name string, script []byte, want string) {
	t.Helper()
	resp, idle, err := replyWith(t, script)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: got %+v, %v; want an error naming %q", name, resp, err, want)
	}
	if idle != 0 {
		t.Errorf("%s: the connection went back to the pool", name)
	}
}

// TestRoundTripOneFrameResponse: a well-formed response, one segment frame
// and a trailer counting it, returns that frame's result and trailer, and
// the connection goes back to the pool.
func TestRoundTripOneFrameResponse(t *testing.T) {
	resp, idle, err := replyWith(t, append(encodeFrame(t, countFrame(0, 30)),
		encodeFrame(t, &FinalFrame{Frames: 1, Exceptions: []string{"slow"}})...))
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Result.Groups.State(0, 0).Count; got != 30 || len(resp.Exceptions) != 1 {
		t.Fatalf("count = %d, exceptions %v; want 30 and the trailer's one", got, resp.Exceptions)
	}
	if idle != 1 {
		t.Fatalf("pool holds %d connections after a clean response, want 1", idle)
	}
}

// TestRoundTripFoldsTrailerStats: stats on the trailer land on the result,
// added to the frame's own.
func TestRoundTripFoldsTrailerStats(t *testing.T) {
	sf := countFrame(0, 5)
	sf.Result.Stats.NumDocsScanned = 100
	resp, _, err := replyWith(t, append(encodeFrame(t, sf),
		encodeFrame(t, &FinalFrame{Frames: 1, Stats: query.Stats{SegmentsPrunedByServer: 7, NumDocsScanned: 1}})...))
	if err != nil {
		t.Fatal(err)
	}
	if st := resp.Result.Stats; st.SegmentsPrunedByServer != 7 || st.NumDocsScanned != 101 {
		t.Fatalf("trailer stats not folded additively: %+v", st)
	}
}

// The five tests named TestStreamMerger* below keep the names of the checks
// the client's former multi-frame merger made. A response is now one segment
// frame, so each property is asserted as a refused round trip.

// TestStreamMergerReorder: the one segment frame of a response is sequence 0.
// A stream that starts with a later frame — a reordered stream — is refused.
func TestStreamMergerReorder(t *testing.T) {
	refused(t, "seq 1 first", append(append(encodeFrame(t, countFrame(1, 2)),
		encodeFrame(t, countFrame(0, 1))...), encodeFrame(t, &FinalFrame{Frames: 2})...), "seq 1")
}

// TestStreamMergerDetectsMissingBelowBuffered: a frame that arrives after a
// gap is refused, whether the gap is below it (seq 2 first) or between it
// and the first frame (seq 0, then seq 2).
func TestStreamMergerDetectsMissingBelowBuffered(t *testing.T) {
	refused(t, "seq 2 first", append(encodeFrame(t, countFrame(2, 1)),
		encodeFrame(t, &FinalFrame{Frames: 1})...), "seq 2")
	refused(t, "seq 0 then seq 2", append(append(encodeFrame(t, countFrame(0, 1)),
		encodeFrame(t, countFrame(2, 1))...), encodeFrame(t, &FinalFrame{Frames: 3})...), "second segment frame")
}

// TestStreamMergerRejectsDuplicates: a complete stream that repeats frame 0
// is refused, not merged twice.
func TestStreamMergerRejectsDuplicates(t *testing.T) {
	refused(t, "seq 0 twice", append(append(encodeFrame(t, countFrame(0, 1)),
		encodeFrame(t, countFrame(0, 1))...), encodeFrame(t, &FinalFrame{Frames: 2})...), "second segment frame")
}

// TestStreamMergerRejectsBadFrames: a negative sequence number is refused.
// (A frame with no result cannot be encoded, so it never reaches the client.)
func TestStreamMergerRejectsBadFrames(t *testing.T) {
	refused(t, "seq -1", append(encodeFrame(t, countFrame(-1, 1)),
		encodeFrame(t, &FinalFrame{Frames: 1})...), "seq -1")
}

// TestStreamMergerDetectsTruncation: a trailer counting more frames than
// arrived — frames lost in flight — fails the call.
func TestStreamMergerDetectsTruncation(t *testing.T) {
	for _, frames := range []int{2, 3} {
		refused(t, fmt.Sprintf("trailer of %d", frames), append(encodeFrame(t, countFrame(0, 1)),
			encodeFrame(t, &FinalFrame{Frames: frames})...), fmt.Sprintf("counts %d segment frames", frames))
	}
}

// TestRoundTripRefusesEmptyResponse: a trailer with no segment frame before
// it carries no result, whatever count it claims.
func TestRoundTripRefusesEmptyResponse(t *testing.T) {
	for _, frames := range []int{0, 1} {
		refused(t, fmt.Sprintf("trailer of %d", frames), encodeFrame(t, &FinalFrame{Frames: frames}), "segment frames")
	}
}

// TestTCPClientTruncatedFinalTrailer: a trailer whose count is not the one
// frame that arrived fails the call, never returning a part as the whole,
// and leaks no goroutine.
func TestTCPClientTruncatedFinalTrailer(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, frames := range []int{0, 3} {
		refused(t, fmt.Sprintf("trailer of %d", frames), append(encodeFrame(t, countFrame(0, 5)),
			encodeFrame(t, &FinalFrame{Frames: frames})...), fmt.Sprintf("counts %d segment frames", frames))
	}
	waitGoroutines(t, base)
}

// TestTCPClientDuplicateSeqFromServer: a second segment frame, a repeat of
// the first or the next of a stream, is refused rather than merged.
func TestTCPClientDuplicateSeqFromServer(t *testing.T) {
	for _, second := range []int{0, 1} {
		refused(t, fmt.Sprintf("second frame seq %d", second), append(encodeFrame(t, countFrame(0, 5)),
			encodeFrame(t, countFrame(second, 5))...), "second segment frame")
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

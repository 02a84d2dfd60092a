package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pinot/internal/metrics"
	"pinot/internal/query"
	"pinot/internal/wire"
)

// echoHandler answers every query with count(*) of 10 per segment, folded
// into the one response frame as a server folds its segments.
type echoHandler struct {
	segments int
	err      error
}

func (h *echoHandler) ExecuteStream(ctx context.Context, req *QueryRequest, emit func(seq int, res *query.Intermediate) error) (*FinalFrame, error) {
	if h.err != nil {
		return nil, h.err
	}
	if err := emit(0, countFrame(0, 10*int64(h.segments)).Result); err != nil {
		return nil, err
	}
	return &FinalFrame{Frames: 1, Stats: query.Stats{NumSegmentsQueried: h.segments}}, nil
}

// fakeController records and acknowledges completion-protocol calls.
type fakeController struct {
	consumed int
	commits  int
}

func (f *fakeController) SegmentConsumed(ctx context.Context, req *SegmentConsumedRequest) (*SegmentConsumedResponse, error) {
	f.consumed++
	if req.Segment == "bad" {
		return nil, errors.New("no such segment")
	}
	return &SegmentConsumedResponse{Action: ActionCommit, TargetOffset: req.Offset}, nil
}

func (f *fakeController) CommitSegment(ctx context.Context, req *SegmentCommitRequest) (*SegmentCommitResponse, error) {
	f.commits++
	return &SegmentCommitResponse{Success: true}, nil
}

// startServer runs a TCPQueryServer on a loopback listener.
func startServer(t *testing.T, srv *TCPQueryServer) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(srv.Close)
	return lis.Addr().String()
}

// TestTCPServerQueryRoundTrip drives the full server path package-locally:
// query frame in, the one segment frame and the trailer out, read by the
// client, with the connection pooled and reused across requests. The
// server reads one frame ahead of the query it serves; after a query ends
// that read is the next request, on the same connection.
func TestTCPServerQueryRoundTrip(t *testing.T) {
	addr := startServer(t, NewTCPQueryServer(&echoHandler{segments: 3}))
	pool := NewPool()
	defer pool.Close()
	client := NewTCPClient(addr, pool)
	var first net.Conn
	for i := 0; i < 3; i++ {
		resp, err := client.Execute(context.Background(), &QueryRequest{Resource: "r", PQL: "SELECT count(*) FROM t"})
		if err != nil {
			t.Fatalf("execute %d: %v", i, err)
		}
		if got := resp.Result.Groups.State(0, 0).Count; got != 30 {
			t.Fatalf("count = %d, want 30", got)
		}
		if resp.Result.Stats.NumSegmentsQueried != 3 {
			t.Fatalf("trailer stats lost: %+v", resp.Result.Stats)
		}
		pool.mu.Lock()
		idle := append([]pooledConn(nil), pool.idle[addr]...)
		pool.mu.Unlock()
		if len(idle) != 1 || i > 0 && idle[0].conn != first {
			t.Fatalf("execute %d: want the one pooled connection back, pool holds %d", i, len(idle))
		}
		first = idle[0].conn
	}
}

// TestTCPServerQueryError: a handler failure must surface as an explicit
// error frame, not a dropped connection.
func TestTCPServerQueryError(t *testing.T) {
	addr := startServer(t, NewTCPQueryServer(&echoHandler{err: errors.New("engine exploded")}))
	pool := NewPool()
	defer pool.Close()
	_, err := NewTCPClient(addr, pool).Execute(context.Background(), &QueryRequest{Resource: "r", PQL: "q"})
	if err == nil || !strings.Contains(err.Error(), "engine exploded") {
		t.Fatalf("want handler error over the wire, got %v", err)
	}
}

// TestTCPServerNoHandler: a pure controller endpoint rejects queries
// explicitly.
func TestTCPServerNoHandler(t *testing.T) {
	addr := startServer(t, NewTCPQueryServer(nil))
	pool := NewPool()
	defer pool.Close()
	_, err := NewTCPClient(addr, pool).Execute(context.Background(), &QueryRequest{Resource: "r", PQL: "q"})
	if err == nil || !strings.Contains(err.Error(), "no query handler") {
		t.Fatalf("want no-handler error, got %v", err)
	}
}

// TestTCPControllerRoundTrip exercises the completion protocol frames over
// the same listener that serves queries.
func TestTCPControllerRoundTrip(t *testing.T) {
	ctrl := &fakeController{}
	srv := NewTCPQueryServer(&echoHandler{segments: 1})
	srv.Controller = ctrl
	addr := startServer(t, srv)
	pool := NewPool()
	defer pool.Close()
	client := NewTCPControllerClient(addr, pool)

	resp, err := client.SegmentConsumed(context.Background(), &SegmentConsumedRequest{
		Segment: "s1", Resource: "r", Instance: "server1", Offset: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Action != ActionCommit || resp.TargetOffset != 42 {
		t.Fatalf("bad consumed response: %+v", resp)
	}
	if _, err := client.SegmentConsumed(context.Background(), &SegmentConsumedRequest{Segment: "bad"}); err == nil {
		t.Fatal("controller error did not surface")
	}
	commit, err := client.CommitSegment(context.Background(), &SegmentCommitRequest{
		Segment: "s1", Resource: "r", Instance: "server1", Blob: []byte("blob"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !commit.Success {
		t.Fatalf("commit rejected: %+v", commit)
	}
	if ctrl.consumed != 2 || ctrl.commits != 1 {
		t.Fatalf("controller saw %d consumed / %d commits", ctrl.consumed, ctrl.commits)
	}
}

// TestTCPServerNoController: completion frames against an endpoint without a
// controller must error explicitly.
func TestTCPServerNoController(t *testing.T) {
	addr := startServer(t, NewTCPQueryServer(&echoHandler{segments: 1}))
	pool := NewPool()
	defer pool.Close()
	_, err := NewTCPControllerClient(addr, pool).SegmentConsumed(context.Background(), &SegmentConsumedRequest{Segment: "s"})
	if err == nil || !strings.Contains(err.Error(), "no controller") {
		t.Fatalf("want no-controller error, got %v", err)
	}
}

// TestTCPRegistryResolution: the registry resolves known instances and routes
// around unknown ones.
func TestTCPRegistryResolution(t *testing.T) {
	addr := startServer(t, NewTCPQueryServer(&echoHandler{segments: 2}))
	pool := NewPool()
	defer pool.Close()
	reg := NewTCPRegistry(func(instance string) (string, bool) {
		if instance == "server1" {
			return addr, true
		}
		return "", false
	}, pool)
	if _, ok := reg.ServerClient("ghost"); ok {
		t.Fatal("unknown instance resolved")
	}
	client, ok := reg.ServerClient("server1")
	if !ok {
		t.Fatal("known instance did not resolve")
	}
	resp, err := client.Execute(context.Background(), &QueryRequest{Resource: "r", PQL: "q"})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Result.Groups.State(0, 0).Count; got != 20 {
		t.Fatalf("count = %d, want 20", got)
	}
}

// TestPoolReapsIdleConnections: a connection idling past the timeout is
// closed by the reaper, and the next Get dials fresh.
func TestPoolReapsIdleConnections(t *testing.T) {
	addr := startServer(t, NewTCPQueryServer(&echoHandler{segments: 1}))
	pool := NewPool()
	pool.IdleTimeout = 10 * time.Millisecond
	defer pool.Close()

	conn, err := pool.Get(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(addr, conn)
	deadline := time.Now().Add(5 * time.Second)
	for {
		pool.mu.Lock()
		n := len(pool.idle[addr])
		pool.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle connection never reaped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The reaped connection is really closed.
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("reaped connection still readable")
	}
}

// TestPoolMaxIdlePerHost: returns beyond the cap close instead of pooling.
func TestPoolMaxIdlePerHost(t *testing.T) {
	addr := startServer(t, NewTCPQueryServer(&echoHandler{segments: 1}))
	pool := NewPool()
	pool.MaxIdlePerHost = 1
	defer pool.Close()

	a, err := pool.Get(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pool.Get(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(addr, a)
	pool.Put(addr, b) // over the cap: must close
	pool.mu.Lock()
	n := len(pool.idle[addr])
	pool.mu.Unlock()
	if n != 1 {
		t.Fatalf("pool holds %d idle conns, cap is 1", n)
	}
	if _, err := b.Read(make([]byte, 1)); err == nil {
		t.Fatal("over-cap connection was not closed")
	}
}

// TestCancelAfterReturnNeverPoisonsPool is the regression test for the
// per-call watchdog that could outlive its call: a caller cancelling its
// context right after Execute returned (what every `defer cancel()` does)
// could have a past deadline set on a connection already back in the pool,
// failing whichever call checked it out next with "i/o timeout". Several
// callers share one pool so a late watchdog has a busy scheduler to be late
// on; every call must succeed.
func TestCancelAfterReturnNeverPoisonsPool(t *testing.T) {
	addr := startServer(t, NewTCPQueryServer(&echoHandler{segments: 1}))
	pool := NewPool()
	defer pool.Close()
	client := NewTCPClient(addr, pool)
	const callers, callsEach = 8, 1000
	var poisoned atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < callsEach; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				_, err := client.Execute(ctx, &QueryRequest{Resource: "r", PQL: "SELECT count(*) FROM t"})
				cancel()
				if err != nil && poisoned.Add(1) == 1 {
					t.Errorf("call %d: %v", i, err)
				}
			}
		}()
	}
	wg.Wait()
	if n := poisoned.Load(); n > 0 {
		t.Fatalf("%d of %d calls failed on a pooled connection", n, callers*callsEach)
	}
}

// badCellHandler answers its first query with a cell type the codec does not
// carry (an int, which the engine never produces) and every later query
// normally.
type badCellHandler struct{ calls int }

func (h *badCellHandler) ExecuteStream(ctx context.Context, req *QueryRequest, emit func(seq int, res *query.Intermediate) error) (*FinalFrame, error) {
	h.calls++
	res := countFrame(0, 10).Result
	if h.calls == 1 {
		res = &query.Intermediate{Kind: query.KindSelection, SelectCols: []string{"a"}, Rows: [][]any{{int(1)}}}
	}
	if err := emit(0, res); err != nil {
		return nil, err
	}
	return &FinalFrame{Frames: 1}, nil
}

// TestUnsupportedCellIsAQueryError: a value outside the five cell types must
// reach the broker as a FrameError — no panic, no half-written frame — and
// leave the very same connection in step for the next query.
func TestUnsupportedCellIsAQueryError(t *testing.T) {
	addr := startServer(t, NewTCPQueryServer(&badCellHandler{}))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	query := encodeFrame(t, &QueryRequest{Resource: "r", PQL: "SELECT a FROM t"})

	if _, err := conn.Write(query); err != nil {
		t.Fatal(err)
	}
	frame, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if frame.Type != FrameError {
		t.Fatalf("frame type %d, want an error frame", frame.Type)
	}
	ef, err := DecodeErrorFrame(frame.Payload)
	if err != nil || !strings.Contains(ef.Message, "unsupported cell type int") {
		t.Fatalf("error frame = %+v, %v", ef, err)
	}

	if _, err := conn.Write(query); err != nil {
		t.Fatal(err)
	}
	for _, want := range []uint8{FrameSegment, FrameFinal} {
		frame, err := readFrame(conn)
		if err != nil {
			t.Fatalf("second query on the same connection: %v", err)
		}
		if frame.Type != want {
			t.Fatalf("second query: frame type %d, want %d", frame.Type, want)
		}
	}

	// The client reports it as a query error like any other.
	pool := NewPool()
	defer pool.Close()
	_, err = NewTCPClient(startServer(t, NewTCPQueryServer(&badCellHandler{})), pool).
		Execute(context.Background(), &QueryRequest{Resource: "r", PQL: "q"})
	if !errors.Is(err, errQueryFailed) {
		t.Fatalf("client error = %v, want a server query error", err)
	}
}

// gobQueryPayload is the head of a version-1 FrameQuery payload: a gob stream
// opening with the type descriptor of QueryRequest.
var gobQueryPayload = []byte{
	0x76, 0x7f, 0x03, 0x01, 0x01, 0x0c, 'Q', 'u', 'e', 'r', 'y', 'R', 'e', 'q', 'u', 'e', 's', 't',
	0x01, 0xff, 0x80, 0x00, 0x01, 0x07, 0x01, 0x08, 'R', 'e', 's', 'o', 'u', 'r', 'c', 'e', 0x01, 0x0c, 0x00,
}

// gobSegmentPayload is the head of a version-1 FrameSegment payload.
var gobSegmentPayload = []byte{
	0x2e, 0xff, 0x83, 0x03, 0x01, 0x01, 0x0c, 'S', 'e', 'g', 'm', 'e', 'n', 't', 'F', 'r', 'a', 'm', 'e',
	0x01, 0xff, 0x84, 0x00, 0x01, 0x02, 0x01, 0x03, 'S', 'e', 'q', 0x01, 0x04, 0x00,
}

// v2GroupByFrame is a whole version-2 FrameSegment: a group-by of one group
// laid out entry by entry, as TestGoldenFrames pinned it before version 3.
var v2GroupByFrame = []byte{
	'P', 2, FrameSegment, 0, 0, 0, 0, 89,
	0, 1, 0, 0,
	1, 1, 'g', // group cols
	1, 1, 1, // one group, one value, one state
	1, 'k', // key
	1, 3, 1, 'k',
	1,                                                                 // one state
	0, 12, 'P', 'E', 'R', 'C', 'E', 'N', 'T', 'I', 'L', 'E', '9', '0', // literal function name
	2, 15,
	0x40, 0, 0, 0, 0, 0, 0, 0, 0x40, 0, 0, 0, 0, 0, 0, 0, 0x40, 0, 0, 0, 0, 0, 0, 0,
	1, 1, 'd', // distinct
	1, 0x40, 0, 0, 0, 0, 0, 0, 0, // values
	0, 0, 0, 0,
	0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
}

// v3AggregationFrame is a whole version-3 FrameSegment: count(*) and sum(x)
// without GROUP BY as one state per function, as TestGoldenFrames pinned it
// before version 4.
var v3AggregationFrame = []byte{
	'P', 3, FrameSegment, 0, 0, 0, 0, 76,
	2, 0, 2, // seq 1, kind, agg exprs
	1, 5, 'C', 'O', 'U', 'N', 'T', 1, '*', 0,
	1, 3, 'S', 'U', 'M', 1, 'x', 1, 1, 'x',
	2,       // aggs
	1, 6, 0, // COUNT by reference, count 3, no flags
	2, 2, 3, // SUM by reference, count 1, seen and numeric
	0x3f, 0xf8, 0, 0, 0, 0, 0, 0, 0x3f, 0xf8, 0, 0, 0, 0, 0, 0, 0x3f, 0xf8, 0, 0, 0, 0, 0, 0, // sum, min, max
	0, 0, 0, 0, 0, 0,
	6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0,
}

func rawFrame(version, typ uint8, payload []byte) []byte {
	out := []byte{frameMagic, version, typ, 0, 0, 0, 0, uint8(len(payload))}
	return append(out, payload...)
}

// TestOldWireVersionsAreRefused: a peer still speaking version 1, 2 or 3, and a
// peer that claims this version but sends a gob payload, are all refused with
// a transport error, and the connection is dropped rather than reused.
func TestOldWireVersionsAreRefused(t *testing.T) {
	// Server side: the connection is closed without an answer.
	for name, frame := range map[string][]byte{
		"v1 header":                rawFrame(1, FrameQuery, gobQueryPayload),
		"v2 header":                rawFrame(2, FrameQuery, []byte{1, 'r', 1, 'q', 0, 0, 0, 0, 0}),
		"current header, gob body": rawFrame(frameVersion, FrameQuery, gobQueryPayload),
	} {
		addr := startServer(t, NewTCPQueryServer(&echoHandler{segments: 1}))
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if n, err := conn.Read(make([]byte, 1)); err == nil {
			t.Errorf("%s: server answered (%d bytes) instead of dropping the connection", name, n)
		}
		conn.Close()
	}

	// Client side: the call fails and the connection does not go back to
	// the pool.
	for name, c := range map[string]struct {
		reply []byte
		want  string
	}{
		"v1 header":                {rawFrame(1, FrameSegment, gobSegmentPayload), "unsupported frame version 1"},
		"v2 group-by":              {v2GroupByFrame, "unsupported frame version 2"},
		"v3 aggregation":           {v3AggregationFrame, "unsupported frame version 3"},
		"current header, gob body": {rawFrame(frameVersion, FrameSegment, gobSegmentPayload), "transport: decode"},
	} {
		addr := scriptedServer(t, c.reply, true)
		pool := NewPool()
		_, err := NewTCPClient(addr, pool).Execute(context.Background(), &QueryRequest{Resource: "r", PQL: "q"})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: client error = %v, want %q", name, err, c.want)
		}
		pool.mu.Lock()
		idle := len(pool.idle[addr])
		pool.mu.Unlock()
		if idle != 0 {
			t.Errorf("%s: the connection was pooled for reuse", name)
		}
		pool.Close()
	}
}

// TestTruncatedFrameCountsAsDecodeFailure: a payload cut short is counted in
// the decode-failure metric exactly like a bad header.
func TestTruncatedFrameCountsAsDecodeFailure(t *testing.T) {
	reg := metrics.NewRegistry()
	UseRegistry(reg)
	defer UseRegistry(nil)
	const name = "pinot_transport_decode_failures_total"
	whole := encodeFrame(t, countFrame(0, 5))

	if _, err := readFrame(bytes.NewReader(whole[:len(whole)-3])); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated payload: err = %v", err)
	}
	if got := reg.Total(name); got != 1 {
		t.Fatalf("decode failures after a truncated payload = %d, want 1", got)
	}
	bad := append([]byte(nil), whole...)
	bad[0] = 'X'
	if _, err := readFrame(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := DecodeSegmentFrame(whole[wire.FrameHeaderSize : len(whole)-1]); err == nil {
		t.Fatal("short payload decoded")
	}
	if got := reg.Total(name); got != 3 {
		t.Fatalf("decode failures = %d, want 3 (truncated frame, bad header, bad payload)", got)
	}
	if _, err := readFrame(bytes.NewReader(whole)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Total(name); got != 3 {
		t.Fatalf("a good frame counted as a decode failure")
	}
}

// stallHandler stands in for a server under InjectLatency: each query waits
// out the delay or its context, whichever ends first, and reports when it
// returned.
type stallHandler struct {
	delay    time.Duration
	returned chan time.Time
}

func (h *stallHandler) ExecuteStream(ctx context.Context, req *QueryRequest, emit func(seq int, res *query.Intermediate) error) (*FinalFrame, error) {
	defer func() { h.returned <- time.Now() }()
	timer := time.NewTimer(h.delay)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-timer.C:
	}
	if err := emit(0, countFrame(0, 1).Result); err != nil {
		return nil, err
	}
	return &FinalFrame{Frames: 1}, nil
}

// TestServerStopsWhenClientHangsUp: a client whose budget runs out closes
// its connection, and the server's handler, still waiting out its latency,
// is cancelled at once instead of running on until its own budget ends. The
// abandoned connection never goes back to the pool.
func TestServerStopsWhenClientHangsUp(t *testing.T) {
	h := &stallHandler{delay: 2 * time.Second, returned: make(chan time.Time, 1)}
	addr := startServer(t, NewTCPQueryServer(h))
	pool := NewPool()
	defer pool.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := NewTCPClient(addr, pool).Execute(ctx, &QueryRequest{Resource: "r", PQL: "SELECT count(*) FROM t"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	select {
	case <-h.returned:
	case <-time.After(500 * time.Millisecond):
		t.Fatal("the handler was still running 500ms after the client hung up")
	}
	pool.mu.Lock()
	idle := len(pool.idle[addr])
	pool.mu.Unlock()
	if idle != 0 {
		t.Fatalf("the abandoned connection went back to the pool (%d idle)", idle)
	}
}

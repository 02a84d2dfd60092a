package transport

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pinot/internal/query"
)

// echoHandler streams a fixed number of count(*) frames per query.
type echoHandler struct {
	frames int
	err    error
}

func (h *echoHandler) ExecuteStream(ctx context.Context, req *QueryRequest, emit func(seq int, res *query.Intermediate) error) (*FinalFrame, error) {
	if h.err != nil {
		return nil, h.err
	}
	for seq := 0; seq < h.frames; seq++ {
		if err := emit(seq, countFrame(seq, 10).Result); err != nil {
			return nil, err
		}
	}
	return &FinalFrame{Frames: h.frames, Stats: query.Stats{NumSegmentsQueried: h.frames}}, nil
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
// query frame in, streamed segment frames and trailer out, merged by the
// client, with the connection pooled and reused across requests.
func TestTCPServerQueryRoundTrip(t *testing.T) {
	addr := startServer(t, NewTCPQueryServer(&echoHandler{frames: 3}))
	pool := NewPool()
	defer pool.Close()
	client := NewTCPClient(addr, pool)
	for i := 0; i < 3; i++ {
		resp, err := client.Execute(context.Background(), &QueryRequest{Resource: "r", PQL: "SELECT count(*) FROM t"})
		if err != nil {
			t.Fatalf("execute %d: %v", i, err)
		}
		if got := resp.Result.Aggs[0].Count; got != 30 {
			t.Fatalf("merged count = %d, want 30", got)
		}
		if resp.Result.Stats.NumSegmentsQueried != 3 {
			t.Fatalf("trailer stats lost: %+v", resp.Result.Stats)
		}
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
	srv := NewTCPQueryServer(&echoHandler{frames: 1})
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
	addr := startServer(t, NewTCPQueryServer(&echoHandler{frames: 1}))
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
	addr := startServer(t, NewTCPQueryServer(&echoHandler{frames: 2}))
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
	if got := resp.Result.Aggs[0].Count; got != 20 {
		t.Fatalf("count = %d, want 20", got)
	}
}

// TestPoolReapsIdleConnections: a connection idling past the timeout is
// closed by the reaper, and the next Get dials fresh.
func TestPoolReapsIdleConnections(t *testing.T) {
	addr := startServer(t, NewTCPQueryServer(&echoHandler{frames: 1}))
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
	addr := startServer(t, NewTCPQueryServer(&echoHandler{frames: 1}))
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
	addr := startServer(t, NewTCPQueryServer(&echoHandler{frames: 1}))
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

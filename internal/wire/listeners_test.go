package wire_test

import (
	"context"
	"errors"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"pinot/internal/pql"
	"pinot/internal/transport"
	"pinot/internal/zkmeta"
)

func countT() *pql.Query {
	q, err := pql.Parse("SELECT count(*) FROM t")
	if err != nil {
		panic(err)
	}
	return q
}

// listen serves a listener of each kind the module runs on loopback: the
// data plane and the metadata endpoint.
func listen(t *testing.T) (dataPlane, metadata string) {
	t.Helper()
	serve := func(s interface {
		Serve(net.Listener) error
		Close()
	}) string {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go s.Serve(lis)
		t.Cleanup(s.Close)
		return lis.Addr().String()
	}
	return serve(transport.NewTCPQueryServer(nil)), serve(zkmeta.NewTCPServer(zkmeta.NewStore()))
}

// TestLyingHeaderCostsWhatArrives sends each listener a header announcing a
// 64 MiB payload, then 16 bytes, then EOF, and meters what the process
// allocates until the server has dropped the connection: less than 1 MiB,
// since the reader allocates with the bytes that arrive, not with the
// length a header claims.
func TestLyingHeaderCostsWhatArrives(t *testing.T) {
	dataPlane, metadata := listen(t)
	for name, c := range map[string]struct {
		addr   string
		header []byte
	}{
		"data plane": {dataPlane, []byte{'P', 4, 1, 0, 0x04, 0, 0, 0}},
		"metadata":   {metadata, []byte{'Z', 1, 1, 0, 0x04, 0, 0, 0}},
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(append(c.header, make([]byte, 16)...)); err != nil {
			t.Fatal(err)
		}
		conn.(*net.TCPConn).CloseWrite()
		if n, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: the server answered (%d bytes, %v) instead of dropping the connection", name, n, err)
		}
		conn.Close()
		runtime.ReadMemStats(&m1)
		if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: 24 bytes made the process allocate %d KB", name, got>>10)
		}
	}
}

// TestWrongPortDialsFail: each protocol has its own magic, so a client
// dialled at the other protocol's listener fails on the first header
// instead of hanging: a metadata session expires, and a query errors.
func TestWrongPortDialsFail(t *testing.T) {
	dataPlane, metadata := listen(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s := zkmeta.NewRemote(dataPlane).NewClient()
		if err := s.Create("/a", nil); !errors.Is(err, zkmeta.ErrSessionClosed) {
			t.Errorf("metadata call at the data plane: %v, want ErrSessionClosed", err)
		}
		if !s.Expired() {
			t.Error("metadata session at the data plane did not expire")
		}

		pool := transport.NewPool()
		defer pool.Close()
		_, err := transport.NewTCPClient(metadata, pool).Execute(context.Background(), &transport.QueryRequest{Resource: "r", Query: countT()})
		if err == nil {
			t.Error("a query at the metadata endpoint returned no error")
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a client dialled at the wrong port hung")
	}
}

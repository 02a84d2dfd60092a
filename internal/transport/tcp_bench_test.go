package transport

import (
	"context"
	"net"
	"testing"

	"pinot/internal/query"
)

// benchStreamHandler replays a fixed intermediate of the realistic shape
// used across the transport benchmarks (200 groups, two aggregation states
// each) and a trailer, standing in for a server's execution engine so the
// benchmark isolates the wire path: framing, codec, pooling.
type benchStreamHandler struct {
	result *query.Intermediate
}

func (h *benchStreamHandler) ExecuteStream(ctx context.Context, req *QueryRequest, emit func(seq int, res *query.Intermediate) error) (*FinalFrame, error) {
	if err := emit(0, h.result); err != nil {
		return nil, err
	}
	return &FinalFrame{Frames: 1}, nil
}

// BenchmarkTransportLoopbackQuery measures one full framed query round trip
// over a real loopback socket: request encode, the response's segment frame
// and trailer, decode — on a pooled connection, the steady state of the
// broker→server data plane.
func BenchmarkTransportLoopbackQuery(b *testing.B) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewTCPQueryServer(&benchStreamHandler{result: benchResponse().Result})
	go srv.Serve(lis)
	defer srv.Close()

	pool := NewPool()
	defer pool.Close()
	client := NewTCPClient(lis.Addr().String(), pool)
	req := &QueryRequest{Resource: "events_OFFLINE", Query: mustQuery("SELECT count(*) FROM events GROUP BY category")}
	ctx := context.Background()

	// Prime the pooled connection so dial cost is not part of steady state.
	if _, err := client.Execute(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Execute(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Result.Groups.Len() != 200 {
			b.Fatalf("decoded %d groups, want 200", resp.Result.Groups.Len())
		}
	}
}

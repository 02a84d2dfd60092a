package transport

import (
	"context"
	"net"
	"testing"
	"time"

	"pinot/internal/query"
)

// benchSegmentFrames builds n per-segment group-by intermediates of the
// realistic shape used across the transport benchmarks (200 groups, two
// aggregation states each).
func benchSegmentFrames(n int) []*query.Intermediate {
	out := make([]*query.Intermediate, n)
	for i := range out {
		out[i] = benchResponse().Result
	}
	return out
}

// benchStreamHandler replays fixed per-segment intermediates and a trailer,
// standing in for a server's execution engine so the benchmark isolates the
// wire path: framing, codec, pooling, streaming merge.
type benchStreamHandler struct {
	frames []*query.Intermediate
}

func (h *benchStreamHandler) ExecuteStream(ctx context.Context, req *QueryRequest, emit func(seq int, res *query.Intermediate) error) (*FinalFrame, error) {
	for seq, r := range h.frames {
		if err := emit(seq, r); err != nil {
			return nil, err
		}
	}
	return &FinalFrame{Frames: len(h.frames), Stats: query.Stats{NumSegmentsQueried: len(h.frames)}}, nil
}

// BenchmarkTransportLoopbackQuery measures one full framed query round trip
// over a real loopback socket: request encode, four streamed segment frames,
// trailer, incremental merge — on a pooled connection, the steady state of
// the broker→server data plane.
func BenchmarkTransportLoopbackQuery(b *testing.B) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewTCPQueryServer(&benchStreamHandler{frames: benchSegmentFrames(4)})
	go srv.Serve(lis)
	defer srv.Close()

	pool := NewPool()
	defer pool.Close()
	client := NewTCPClient(lis.Addr().String(), pool)
	req := &QueryRequest{Resource: "events_OFFLINE", PQL: "SELECT count(*) FROM events GROUP BY category"}
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
			b.Fatalf("merged %d groups, want 200", resp.Result.Groups.Len())
		}
	}
}

// BenchmarkStreamVsBuffered compares the client-side cost of the two response
// shapes for the same query result: the streamed path decodes and merges N
// per-segment frames incrementally, the buffered path decodes one whole-
// response payload the server pre-merged. Both are measured every iteration;
// the combined time is ns/op and each side is reported as its own metric
// (stream-ns/op, buffered-ns/op).
func BenchmarkStreamVsBuffered(b *testing.B) {
	const nFrames = 8
	frames := benchSegmentFrames(nFrames)

	// The streamed wire bytes: per-segment frame payloads plus the trailer,
	// exactly what a server writes.
	segPayloads := make([][]byte, nFrames)
	for seq, r := range frames {
		segPayloads[seq] = encodeFrame(b, &SegmentFrame{Seq: seq, Result: r})[FrameHeaderSize:]
	}
	trailer := &FinalFrame{Frames: nFrames, Stats: query.Stats{NumSegmentsQueried: nFrames}}

	// The buffered wire bytes: the server merges all segments first and
	// encodes the single result once.
	bufMerger := NewStreamMerger()
	for seq, p := range segPayloads {
		sf, err := DecodeSegmentFrame(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := bufMerger.Add(sf); err != nil {
			b.Fatalf("add %d: %v", seq, err)
		}
	}
	merged, err := bufMerger.Finish(trailer)
	if err != nil {
		b.Fatal(err)
	}
	buffered, err := EncodeResponse(&QueryResponse{Result: merged})
	if err != nil {
		b.Fatal(err)
	}

	var streamNS, bufferedNS time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		m := NewStreamMerger()
		for _, p := range segPayloads {
			sf, err := DecodeSegmentFrame(p)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Add(sf); err != nil {
				b.Fatal(err)
			}
		}
		res, err := m.Finish(trailer)
		if err != nil {
			b.Fatal(err)
		}
		if res.Groups.Len() != 200 {
			b.Fatalf("streamed merge produced %d groups, want 200", res.Groups.Len())
		}
		streamNS += time.Since(start)

		start = time.Now()
		resp, err := DecodeResponse(buffered)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Result.Groups.Len() != 200 {
			b.Fatalf("buffered decode produced %d groups, want 200", resp.Result.Groups.Len())
		}
		bufferedNS += time.Since(start)
	}
	b.ReportMetric(float64(streamNS.Nanoseconds())/float64(b.N), "stream-ns/op")
	b.ReportMetric(float64(bufferedNS.Nanoseconds())/float64(b.N), "buffered-ns/op")
}

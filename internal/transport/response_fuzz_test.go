package transport

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"pinot/internal/query"
	"pinot/internal/wire"
)

// FuzzResponseStream hands arbitrary bytes to TCPClient as a server's reply
// to one query, over a net.Pipe checked out of the pool as any connection
// is. The call never panics. It returns exactly what a well-formed response
// (one segment frame of sequence 0, then a trailer counting one frame)
// carried, or an error; and on an error the connection never goes back to
// the pool.
func FuzzResponseStream(f *testing.F) {
	segment := encodeFrame(f, countFrame(0, 7))
	final := encodeFrame(f, &FinalFrame{Frames: 1, Exceptions: []string{"slow"}, Stats: query.Stats{NumDocsScanned: 3}})
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f.Add(cat(segment, final))
	f.Add(cat(segment, encodeFrame(f, countFrame(1, 7)), final))
	f.Add(cat(encodeFrame(f, countFrame(1, 7)), final))
	f.Add(cat(segment, encodeFrame(f, &FinalFrame{Frames: 2})))
	f.Add(cat(segment, final, []byte{frameMagic}))
	f.Fuzz(func(t *testing.T, reply []byte) {
		want := wellFormedResponse(reply)
		const addr = "pipe"
		client, server := net.Pipe()
		pool := NewPool()
		defer pool.Close()
		pool.Put(addr, client)
		served := make(chan struct{})
		go func() {
			defer close(served)
			defer server.Close()
			var fr wire.FrameReader
			if _, _, err := fr.Read(server, &dataPlane); err == nil {
				server.Write(reply)
			}
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		got, err := NewTCPClient(addr, pool).Execute(ctx, &QueryRequest{Resource: "r", PQL: "q"})
		pool.mu.Lock()
		pooled := len(pool.idle[addr])
		pool.mu.Unlock()
		client.Close()
		<-served
		switch {
		case err != nil && pooled != 0:
			t.Fatalf("the call failed (%v) and its connection went back to the pool", err)
		case err != nil && want != nil:
			t.Fatalf("a well-formed response failed the call: %v", err)
		case err == nil && want == nil:
			t.Fatalf("a malformed response was accepted: %+v", got)
		case err == nil && !bytes.Equal(encodedResponse(t, got), encodedResponse(t, want)):
			t.Fatalf("the call returned %+v, the response carried %+v", got, want)
		}
	})
}

// wellFormedResponse is the response reply carries if it opens with one
// segment frame of sequence 0 and a trailer counting one frame, else nil.
// Bytes after the trailer do not matter to the call they answer.
func wellFormedResponse(reply []byte) *QueryResponse {
	r := bytes.NewReader(reply)
	var fr wire.FrameReader
	typ, payload, err := fr.Read(r, &dataPlane)
	if err != nil || typ != FrameSegment {
		return nil
	}
	sf, err := DecodeSegmentFrame(payload)
	if err != nil || sf.Seq != 0 {
		return nil
	}
	typ, payload, err = fr.Read(r, &dataPlane)
	if err != nil || typ != FrameFinal {
		return nil
	}
	ff, err := DecodeFinalFrame(payload)
	if err != nil || ff.Frames != 1 {
		return nil
	}
	sf.Result.Stats.Merge(ff.Stats)
	return &QueryResponse{Result: sf.Result, Exceptions: ff.Exceptions, Trace: ff.Trace}
}

func encodedResponse(t *testing.T, r *QueryResponse) []byte {
	t.Helper()
	b, err := EncodeResponse(r)
	if err != nil {
		t.Fatalf("a decoded response does not encode: %v", err)
	}
	return b
}

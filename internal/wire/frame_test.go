package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
)

// meteredProtocol returns a protocol whose hooks count into the returned
// tallies: frames sent, bytes sent, frames received, bytes received, refused.
func meteredProtocol() (*Protocol, *[5]int) {
	var n [5]int
	return &Protocol{
		Name: "test", Magic: 'T', Version: 2, Types: 3,
		Sent:     func(b int) { n[0]++; n[1] += b },
		Received: func(b int) { n[2]++; n[3] += b },
		Refused:  func() { n[4]++ },
	}, &n
}

// TestFrameRoundTrip sends frames of every size class — empty, small, and
// past bigFrame so the reader gathers it in chunks — through one reader.
func TestFrameRoundTrip(t *testing.T) {
	p, n := meteredProtocol()
	sizes := []int{0, 10, 600, bigFrame, 3*bigFrame + 5}
	var stream bytes.Buffer
	for i, size := range sizes {
		payload := bytes.Repeat([]byte{byte(i + 1)}, size)
		if encoded, err := p.Send(&stream, byte(1+i%3), func(e *Encoder) { e.Raw(payload...) }); !encoded || err != nil {
			t.Fatalf("send %d bytes: %v %v", size, encoded, err)
		}
	}
	var fr FrameReader
	total := 0
	for i, size := range sizes {
		typ, payload, err := fr.Read(&stream, p)
		if err != nil {
			t.Fatalf("read %d bytes: %v", size, err)
		}
		if typ != byte(1+i%3) || !bytes.Equal(payload, bytes.Repeat([]byte{byte(i + 1)}, size)) {
			t.Fatalf("frame %d: type %d, %d bytes back", i, typ, len(payload))
		}
		total += FrameHeaderSize + size
	}
	if _, _, err := fr.Read(&stream, p); err != io.EOF {
		t.Fatalf("read past the last frame: %v", err)
	}
	if *n != [5]int{len(sizes), total, len(sizes), total, 0} {
		t.Fatalf("meters = %v, want %d frames and %d bytes each way", *n, len(sizes), total)
	}
	fr.Release()
}

// TestHeaderRefusals: each header field is checked before the payload is
// read, every refusal names the protocol, and each counts as refused.
func TestHeaderRefusals(t *testing.T) {
	p, n := meteredProtocol()
	for want, hdr := range map[string][]byte{
		"bad frame magic":           {'P', 2, 1, 0, 0, 0, 0, 0},
		"unsupported frame version": {'T', 1, 1, 0, 0, 0, 0, 0},
		"unknown frame type 0":      {'T', 2, 0, 0, 0, 0, 0, 0},
		"unknown frame type 4":      {'T', 2, 4, 0, 0, 0, 0, 0},
		"nonzero reserved byte":     {'T', 2, 1, 1, 0, 0, 0, 0},
		"exceeds max":               {'T', 2, 1, 0, 0x04, 0, 0, 1},
		"truncated frame payload":   {'T', 2, 1, 0, 0, 0, 0, 9, 1},
	} {
		var fr FrameReader
		_, _, err := fr.Read(bytes.NewReader(hdr), p)
		if err == nil || !strings.HasPrefix(err.Error(), "test: ") || !strings.Contains(err.Error(), want) {
			t.Errorf("%v: err = %v, want %q", hdr, err, want)
		}
	}
	if n[4] != 7 {
		t.Fatalf("refused = %d, want 7", n[4])
	}
}

// TestSendRefusesWhatItCannotEncode: a payload the encoding refuses reaches
// nothing, and the stream stays in step.
func TestSendRefusesWhatItCannotEncode(t *testing.T) {
	p, n := meteredProtocol()
	var stream bytes.Buffer
	encoded, err := p.Send(&stream, 1, func(e *Encoder) { e.Uvarint(7); e.Fail("no such value") })
	if encoded || err == nil || !strings.Contains(err.Error(), "test: encode: no such value") || stream.Len() != 0 {
		t.Fatalf("encoded %v, err %v, %d bytes written", encoded, err, stream.Len())
	}
	failing := failWriter{}
	if encoded, err := p.Send(failing, 1, func(e *Encoder) {}); !encoded || err == nil {
		t.Fatalf("a failed write: encoded %v, err %v", encoded, err)
	}
	if n[0] != 0 {
		t.Fatalf("%d frames counted as sent", n[0])
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("gone") }

// allocated reports the bytes f allocates. The process-wide counter also
// sees what other goroutines allocate meanwhile, which can only add to a
// measurement, so the least of a few runs is the one reported.
func allocated(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	return least
}

// TestReaderAllocatesWhatArrives: a header may announce up to
// MaxFramePayload, but the reader allocates at most bigFrame more than twice
// the bytes that actually follow it.
func TestReaderAllocatesWhatArrives(t *testing.T) {
	p, _ := meteredProtocol()
	for _, sent := range []int{0, 16, bigFrame + 1, 1 << 20} {
		in := append([]byte{'T', 2, 1, 0, 0x04, 0, 0, 0}, make([]byte, sent)...)
		got := allocated(func() {
			var fr FrameReader
			if _, _, err := fr.Read(bytes.NewReader(in), p); err == nil {
				t.Fatal("a payload cut short was read")
			}
		})
		if limit := uint64(bigFrame + 2*sent + 4096); got > limit {
			t.Errorf("%d bytes after a 64 MiB header: allocated %d, limit %d", sent, got, limit)
		}
	}
}

// TestServerCloseDropsConnections: Close drops a live connection, waits for
// its handler, and a closed server serves nothing more.
func TestServerCloseDropsConnections(t *testing.T) {
	handled := make(chan struct{})
	s := NewServer(func(conn net.Conn) {
		conn.Read(make([]byte, 1)) // until Close drops the connection
		close(handled)
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(lis) }()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for {
		s.mu.Lock()
		live := len(s.conns)
		s.mu.Unlock()
		if live == 1 {
			break
		}
		runtime.Gosched()
	}
	s.Close()
	<-handled
	if err := <-served; err != nil {
		t.Fatalf("Serve after Close: %v", err)
	}
	s.Close()
	lis2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(lis2); err == nil {
		t.Fatal("a closed server served")
	}
}

package chaos

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ProxyFault describes socket-level mischief a Proxy injects into the
// response direction (server→client) of each proxied connection. The zero
// value is a transparent proxy.
type ProxyFault struct {
	// RejectConnections closes every new client connection immediately,
	// modelling a dead or refusing endpoint behind a live address.
	RejectConnections bool
	// ResetAfterResponseBytes, when > 0, forcefully resets (RST) the client
	// connection once that many response bytes have been forwarded. Pointing
	// it inside a frame models a server killed mid-frame.
	ResetAfterResponseBytes int
	// HangAfterResponseBytes, when > 0, stops forwarding after that many
	// response bytes without closing anything: a half-open connection that
	// only a client deadline can escape.
	HangAfterResponseBytes int
	// DripDelay, when > 0, forwards response bytes in DripChunk-sized
	// pieces with this delay between them — a pathologically slow peer.
	DripDelay time.Duration
	// DripChunk sizes drip pieces (default 1 byte).
	DripChunk int
	// CorruptResponseByte, when > 0, flips one bit in the Nth (1-based)
	// response byte, corrupting the stream without breaking the connection.
	CorruptResponseByte int
}

// Proxy is a TCP fault-injection proxy in front of one target address.
// Faults apply per connection from the moment SetFault is called; existing
// connections pick up threshold faults at their current byte offsets.
type Proxy struct {
	target string
	lis    net.Listener

	mu     sync.Mutex
	fault  ProxyFault
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	faulted atomic.Int64
}

// NewProxy listens on a loopback port and forwards to target.
func NewProxy(target string) (*Proxy, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{target: target, lis: lis, conns: map[net.Conn]struct{}{}}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address; dial this instead of the target.
func (p *Proxy) Addr() string { return p.lis.Addr().String() }

// SetFault installs a fault policy.
func (p *Proxy) SetFault(f ProxyFault) {
	p.mu.Lock()
	p.fault = f
	p.mu.Unlock()
}

// Clear removes the fault policy (transparent proxying).
func (p *Proxy) Clear() { p.SetFault(ProxyFault{}) }

// Faulted reports connections on which a fault fired.
func (p *Proxy) Faulted() int64 { return p.faulted.Load() }

// SeverAll hard-closes every currently proxied connection (RST where the
// stack allows it) while leaving the listener up: the replica-death model
// for clients holding pooled connections. Combine with RejectConnections to
// keep the instance dead to redials.
func (p *Proxy) SeverAll() {
	p.mu.Lock()
	conns := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		c.Close()
		p.faulted.Add(1)
	}
}

// Close stops the listener and severs every proxied connection.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.lis.Close()
	p.wg.Wait()
}

func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) currentFault() ProxyFault {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fault
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.lis.Accept()
		if err != nil {
			return
		}
		if p.currentFault().RejectConnections {
			p.faulted.Add(1)
			client.Close()
			continue
		}
		server, err := net.DialTimeout("tcp", p.target, 5*time.Second)
		if err != nil {
			client.Close()
			continue
		}
		if !p.track(client) || !p.track(server) {
			client.Close()
			server.Close()
			return
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.pipe(client, server)
			p.untrack(client)
			p.untrack(server)
		}()
	}
}

// pipe runs the two copy directions until both end. The request direction is
// transparent; the response direction goes through the fault filter.
func (p *Proxy) pipe(client, server net.Conn) {
	done := make(chan struct{}, 2)
	go func() {
		io.Copy(server, client)
		if tc, ok := server.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	go func() {
		p.forwardResponses(client, server)
		done <- struct{}{}
	}()
	<-done
	<-done
	client.Close()
	server.Close()
}

// forwardResponses copies server→client applying the fault policy.
func (p *Proxy) forwardResponses(client, server net.Conn) {
	buf := make([]byte, 32<<10)
	sent := 0 // response bytes forwarded so far on this connection
	for {
		n, err := server.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			f := p.currentFault()
			// Corrupt one byte if its absolute offset lands in this chunk.
			if off := f.CorruptResponseByte; off > 0 && off > sent && off <= sent+len(chunk) {
				chunk[off-sent-1] ^= 0x40
				p.faulted.Add(1)
			}
			// Truncate at a reset/hang threshold inside this chunk. A
			// connection already past the threshold (fault installed on a
			// pooled, previously used conn) forwards nothing more.
			action := 0 // 1 = reset, 2 = hang
			if f.ResetAfterResponseBytes > 0 && sent+len(chunk) >= f.ResetAfterResponseBytes {
				chunk = chunk[:clampCut(f.ResetAfterResponseBytes-sent, len(chunk))]
				action = 1
			} else if f.HangAfterResponseBytes > 0 && sent+len(chunk) >= f.HangAfterResponseBytes {
				chunk = chunk[:clampCut(f.HangAfterResponseBytes-sent, len(chunk))]
				action = 2
			}
			if werr := p.writeChunk(client, chunk, f); werr != nil {
				return
			}
			sent += len(chunk)
			switch action {
			case 1:
				// SO_LINGER 0 makes the close send an RST instead of a FIN:
				// the client sees a hard connection reset mid-stream.
				p.faulted.Add(1)
				if tc, ok := client.(*net.TCPConn); ok {
					tc.SetLinger(0)
				}
				client.Close()
				return
			case 2:
				// Half-open: forward nothing more, close nothing. The
				// connection stays up until the client's deadline fires or
				// the proxy shuts down.
				p.faulted.Add(1)
				p.parkUntilClosed(client)
				return
			}
		}
		if err != nil {
			if tc, ok := client.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
			return
		}
	}
}

// clampCut bounds a threshold cut to [0, n].
func clampCut(cut, n int) int {
	if cut < 0 {
		return 0
	}
	if cut > n {
		return n
	}
	return cut
}

// writeChunk writes response bytes, dripping them slowly when configured.
func (p *Proxy) writeChunk(client net.Conn, chunk []byte, f ProxyFault) error {
	if f.DripDelay <= 0 {
		_, err := client.Write(chunk)
		return err
	}
	p.faulted.Add(1)
	size := f.DripChunk
	if size <= 0 {
		size = 1
	}
	for len(chunk) > 0 {
		n := size
		if n > len(chunk) {
			n = len(chunk)
		}
		if _, err := client.Write(chunk[:n]); err != nil {
			return err
		}
		chunk = chunk[n:]
		if len(chunk) > 0 {
			time.Sleep(f.DripDelay)
		}
	}
	return nil
}

// parkUntilClosed blocks until the client connection dies (peer close or
// proxy Close), keeping the half-open illusion alive without burning CPU.
func (p *Proxy) parkUntilClosed(client net.Conn) {
	one := make([]byte, 1)
	for {
		// The client never sends more on a half-open response, so this read
		// only returns on close/reset/proxy shutdown.
		if _, err := client.Read(one); err != nil {
			return
		}
	}
}

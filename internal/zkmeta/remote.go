package zkmeta

import (
	"net"
	"sync"
	"time"

	"pinot/internal/wire"
)

// Remote is an Endpoint backed by a TCP metadata server (see TCPServer).
// Each NewClient dials its own connection, so each client is an independent
// session whose ephemerals die with the connection.
type Remote struct {
	addr string
	// DialTimeout bounds each session dial (default 5s).
	DialTimeout time.Duration
}

// NewRemote points at a zkmeta TCP endpoint.
func NewRemote(addr string) *Remote { return &Remote{addr: addr, DialTimeout: 5 * time.Second} }

// NewClient dials a fresh session. Dial failure yields an already-expired
// session whose operations fail with ErrSessionClosed and whose OnExpire
// never fires; Kept retries such a session with backoff.
func (r *Remote) NewClient() Client {
	conn, err := net.DialTimeout("tcp", r.addr, r.DialTimeout)
	if err != nil {
		rs := &RemoteSession{pending: map[uint64]chan *wireResp{}, watches: map[uint64]*remoteWatch{}}
		rs.closed = true
		return rs
	}
	return newRemoteSession(conn)
}

var _ Endpoint = (*Remote)(nil)

type remoteWatch struct {
	ch     chan Event
	closed bool
}

// RemoteSession is a Client over one TCP connection. All operations are
// synchronous request/response; watch events are pushed by the server and
// fanned out to per-watch channels by a background reader.
type RemoteSession struct {
	conn net.Conn
	w    connWriter

	mu        sync.Mutex
	closed    bool
	nextID    uint64
	pending   map[uint64]chan *wireResp
	watches   map[uint64]*remoteWatch
	expireCbs []func()
}

func newRemoteSession(conn net.Conn) *RemoteSession {
	rs := &RemoteSession{
		conn:    conn,
		w:       connWriter{w: conn},
		pending: map[uint64]chan *wireResp{},
		watches: map[uint64]*remoteWatch{},
	}
	go rs.readLoop()
	return rs
}

// readLoop hands responses to their callers and events to their watches
// until the connection fails or the server breaks the protocol.
func (rs *RemoteSession) readLoop() {
	defer rs.teardown()
	var fr wire.FrameReader
	for {
		typ, payload, err := fr.Read(rs.conn, &proto)
		if err != nil {
			return
		}
		switch typ {
		case frameResponse:
			resp := new(wireResp)
			if decode(payload, resp.decode) != nil {
				return
			}
			rs.mu.Lock()
			ch := rs.pending[resp.ID]
			delete(rs.pending, resp.ID)
			rs.mu.Unlock()
			if ch != nil {
				ch <- resp
			}
		case frameEvent:
			var ev wireEvent
			if decode(payload, ev.decode) != nil {
				return
			}
			rs.mu.Lock()
			w := rs.watches[ev.WatchID]
			if w != nil && !w.closed {
				select {
				case w.ch <- Event{Type: ev.Type, Path: ev.Path}:
				default: // mirror local sessions: drop on overflow
				}
			}
			rs.mu.Unlock()
		default:
			return
		}
	}
}

// teardown marks the session expired, fails pending calls, closes watch
// channels and fires expiry callbacks — the remote analogue of Session.Close
// observed from the client side.
func (rs *RemoteSession) teardown() {
	rs.mu.Lock()
	if rs.closed {
		rs.mu.Unlock()
		return
	}
	rs.closed = true
	for id, ch := range rs.pending {
		delete(rs.pending, id)
		close(ch)
	}
	for id, w := range rs.watches {
		delete(rs.watches, id)
		if !w.closed {
			w.closed = true
			close(w.ch)
		}
	}
	cbs := rs.expireCbs
	rs.expireCbs = nil
	rs.mu.Unlock()
	rs.conn.Close()
	for _, fn := range cbs {
		fn()
	}
}

// call sends one request and waits for its response.
func (rs *RemoteSession) call(req wireReq) (*wireResp, error) {
	rs.mu.Lock()
	if rs.closed {
		rs.mu.Unlock()
		return nil, ErrSessionClosed
	}
	rs.nextID++
	req.ID = rs.nextID
	ch := make(chan *wireResp, 1)
	rs.pending[req.ID] = ch
	rs.mu.Unlock()

	if err := rs.w.send(frameRequest, req.encode); err != nil {
		rs.mu.Lock()
		delete(rs.pending, req.ID)
		rs.mu.Unlock()
		// The read loop tears down, so expiry callbacks never run on a
		// caller that may hold its own locks.
		rs.conn.Close()
		return nil, ErrSessionClosed
	}
	resp, ok := <-ch
	if !ok {
		return nil, ErrSessionClosed
	}
	return resp, nil
}

func (rs *RemoteSession) simpleCall(req wireReq) error {
	resp, err := rs.call(req)
	if err != nil {
		return err
	}
	return codeToErr(resp.Code, resp.Err)
}

// Create adds a persistent node; the parent must exist.
func (rs *RemoteSession) Create(path string, data []byte) error {
	return rs.simpleCall(wireReq{Op: opCreate, Path: path, Data: data})
}

// CreateEphemeral adds a node that dies with this session's connection.
func (rs *RemoteSession) CreateEphemeral(path string, data []byte) error {
	return rs.simpleCall(wireReq{Op: opCreateEphemeral, Path: path, Data: data})
}

// CreateAll creates the node and any missing ancestors (persistent).
func (rs *RemoteSession) CreateAll(path string, data []byte) error {
	return rs.simpleCall(wireReq{Op: opCreateAll, Path: path, Data: data})
}

// Get returns a node's data and version.
func (rs *RemoteSession) Get(path string) ([]byte, int, error) {
	resp, err := rs.call(wireReq{Op: opGet, Path: path})
	if err != nil {
		return nil, 0, err
	}
	if err := codeToErr(resp.Code, resp.Err); err != nil {
		return nil, 0, err
	}
	return resp.Data, resp.Version, nil
}

// Set replaces a node's data with an optional version check (-1 = any).
func (rs *RemoteSession) Set(path string, data []byte, expectedVersion int) (int, error) {
	resp, err := rs.call(wireReq{Op: opSet, Path: path, Data: data, Version: expectedVersion})
	if err != nil {
		return 0, err
	}
	if err := codeToErr(resp.Code, resp.Err); err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// Delete removes a leaf node with an optional version check (-1 = any).
func (rs *RemoteSession) Delete(path string, expectedVersion int) error {
	return rs.simpleCall(wireReq{Op: opDelete, Path: path, Version: expectedVersion})
}

// Exists reports whether a node exists.
func (rs *RemoteSession) Exists(path string) bool {
	resp, err := rs.call(wireReq{Op: opExists, Path: path})
	if err != nil {
		return false
	}
	return resp.Bool
}

// Children returns the sorted child names of a node.
func (rs *RemoteSession) Children(path string) ([]string, error) {
	resp, err := rs.call(wireReq{Op: opChildren, Path: path})
	if err != nil {
		return nil, err
	}
	if err := codeToErr(resp.Code, resp.Err); err != nil {
		return nil, err
	}
	return resp.Names, nil
}

// Watch subscribes to created/changed/deleted events for a path.
func (rs *RemoteSession) Watch(path string) (<-chan Event, func()) {
	return rs.watch(path, opWatch)
}

// WatchChildren subscribes to child membership changes of a path.
func (rs *RemoteSession) WatchChildren(path string) (<-chan Event, func()) {
	return rs.watch(path, opWatchChildren)
}

func (rs *RemoteSession) watch(path string, op uint8) (<-chan Event, func()) {
	rs.mu.Lock()
	if rs.closed {
		rs.mu.Unlock()
		ch := make(chan Event)
		close(ch)
		return ch, func() {}
	}
	rs.nextID++
	id := rs.nextID
	w := &remoteWatch{ch: make(chan Event, 4096)}
	rs.watches[id] = w
	rs.mu.Unlock()

	if _, err := rs.call(wireReq{Op: op, Path: path, WatchID: id}); err != nil {
		// Session died while registering; teardown already closed w.ch if it
		// was registered, otherwise close it here.
		rs.mu.Lock()
		if ww := rs.watches[id]; ww != nil && !ww.closed {
			ww.closed = true
			close(ww.ch)
			delete(rs.watches, id)
		}
		rs.mu.Unlock()
		return w.ch, func() {}
	}
	cancel := func() {
		rs.mu.Lock()
		ww := rs.watches[id]
		delete(rs.watches, id)
		alive := !rs.closed
		if ww != nil && !ww.closed {
			ww.closed = true
			close(ww.ch)
		}
		rs.mu.Unlock()
		if alive && ww != nil {
			_, _ = rs.call(wireReq{Op: opUnwatch, WatchID: id})
		}
	}
	return w.ch, cancel
}

// OnExpire registers fn to run when the session closes or the connection
// drops. Registering on an already-expired session is a no-op, as it is on a
// local Session — a reconnect loop would otherwise recurse forever against a
// dead endpoint; Kept detects that case via Expired() and retries instead.
func (rs *RemoteSession) OnExpire(fn func()) {
	rs.mu.Lock()
	if rs.closed {
		rs.mu.Unlock()
		return
	}
	rs.expireCbs = append(rs.expireCbs, fn)
	rs.mu.Unlock()
}

// Expired reports whether the session has been closed or lost its connection.
func (rs *RemoteSession) Expired() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.closed
}

// Close ends the session; the server deletes its ephemerals when the
// connection drops.
func (rs *RemoteSession) Close() { rs.teardown() }

// Expire simulates ungraceful expiry (drops the connection).
func (rs *RemoteSession) Expire() { rs.teardown() }

var _ Client = (*RemoteSession)(nil)

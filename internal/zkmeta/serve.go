package zkmeta

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"pinot/internal/wire"
)

// The metadata substrate's TCP protocol: one connection is one session, so
// ephemeral-node lifetime is tied to connection lifetime exactly the way a
// Zookeeper session is tied to its client — a kill -9'd process drops its
// connection and its live-instance ephemerals vanish. It speaks
// internal/wire's frames under its own magic, so a peer dialled at the wrong
// port fails on the first header. The client sends frameRequest frames; the
// server answers each with a frameResponse (correlated by ID) and pushes
// frameEvent frames (correlated by watch ID) between them.

var proto = wire.Protocol{Name: "zkmeta", Magic: 'Z', Version: 1, Types: frameEvent}

// Frame types.
const (
	frameRequest  uint8 = iota + 1 // wireReq
	frameResponse                  // wireResp
	frameEvent                     // wireEvent
)

// Wire operation codes.
const (
	opCreate uint8 = iota + 1
	opCreateEphemeral
	opCreateAll
	opGet
	opSet
	opDelete
	opExists
	opChildren
	opWatch
	opWatchChildren
	opUnwatch
)

// wireErrs are the wire error codes: a code is its sentinel's index, so
// `err == zkmeta.ErrNodeExists`-style checks keep working remotely, and
// wireErrOther carries any other error as its text.
var wireErrs = [...]error{nil, ErrNoNode, ErrNodeExists, ErrBadVersion, ErrNotEmpty, ErrNoParent, ErrSessionClosed}

const wireErrOther = uint8(len(wireErrs))

func errToCode(err error) (uint8, string) {
	for code, sentinel := range wireErrs {
		if errors.Is(err, sentinel) {
			return uint8(code), ""
		}
	}
	return wireErrOther, err.Error()
}

func codeToErr(code uint8, msg string) error {
	if int(code) < len(wireErrs) {
		return wireErrs[code]
	}
	return errors.New("zkmeta: remote: " + msg)
}

// wireReq is one client request: ID uvarint, Op byte, Path string, Data
// bytes, Version varint, WatchID uvarint.
type wireReq struct {
	ID      uint64
	Op      uint8
	Path    string
	Data    []byte
	Version int
	WatchID uint64
}

func (r *wireReq) encode(e *wire.Encoder) {
	e.Uvarint(r.ID)
	e.Raw(r.Op)
	e.Str(r.Path)
	e.Blob(r.Data)
	e.Varint(int64(r.Version))
	e.Uvarint(r.WatchID)
}

func (r *wireReq) decode(d *wire.Decoder) {
	*r = wireReq{ID: d.Uvarint(), Op: d.Byte(), Path: d.Str(), Data: blob(d), Version: d.Int(), WatchID: d.Uvarint()}
}

// wireResp answers one request: ID uvarint, Code byte, Err string, Data
// bytes, Version varint, Bool bool, Names []string, WatchID uvarint.
type wireResp struct {
	ID      uint64
	Code    uint8
	Err     string
	Data    []byte
	Version int
	Bool    bool
	Names   []string
	WatchID uint64
}

func (r *wireResp) encode(e *wire.Encoder) {
	e.Uvarint(r.ID)
	e.Raw(r.Code)
	e.Str(r.Err)
	e.Blob(r.Data)
	e.Varint(int64(r.Version))
	e.Bool(r.Bool)
	e.Strs(r.Names)
	e.Uvarint(r.WatchID)
}

func (r *wireResp) decode(d *wire.Decoder) {
	*r = wireResp{ID: d.Uvarint(), Code: d.Byte(), Err: d.Str(), Data: blob(d), Version: d.Int(),
		Bool: d.Bool(), Names: d.Strs(), WatchID: d.Uvarint()}
}

// wireEvent is a pushed watch notification: WatchID uvarint, Type byte,
// Path string.
type wireEvent struct {
	WatchID uint64
	Type    EventType
	Path    string
}

func (ev *wireEvent) encode(e *wire.Encoder) {
	e.Uvarint(ev.WatchID)
	e.Raw(byte(ev.Type))
	e.Str(ev.Path)
}

func (ev *wireEvent) decode(d *wire.Decoder) {
	*ev = wireEvent{WatchID: d.Uvarint(), Type: EventType(d.Byte()), Path: d.Str()}
}

// blob reads a length-prefixed byte run into a copy of its own; empty is nil.
func blob(d *wire.Decoder) []byte {
	if b := d.Bytes(); len(b) > 0 {
		return append([]byte(nil), b...)
	}
	return nil
}

// decode reads one message that must consume the payload exactly.
func decode(payload []byte, read func(*wire.Decoder)) error {
	d := wire.NewDecoder(payload)
	read(&d)
	if err := d.Finish(); err != nil {
		return fmt.Errorf("zkmeta: decode: %w", err)
	}
	return nil
}

// TCPServer exposes a Store over TCP. Each accepted connection owns one
// session; closing the connection closes the session.
type TCPServer struct{ *wire.Server }

// NewTCPServer wraps a store for serving.
func NewTCPServer(store *Store) *TCPServer {
	return &TCPServer{wire.NewServer(func(conn net.Conn) { serveSession(store, conn) })}
}

// connWriter serializes the frames of one side of a connection; the first
// failed write sticks.
type connWriter struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

func (w *connWriter) send(typ uint8, fill func(*wire.Encoder)) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		_, w.err = proto.Send(w.w, typ, fill)
	}
	return w.err
}

func serveSession(store *Store, conn net.Conn) {
	sess := store.NewSession()
	defer sess.Close()
	w := &connWriter{w: conn}

	type watchState struct {
		cancel func()
		done   chan struct{}
	}
	watches := map[uint64]*watchState{}
	var watchMu sync.Mutex
	defer func() {
		watchMu.Lock()
		ws := make([]*watchState, 0, len(watches))
		for _, st := range watches {
			ws = append(ws, st)
		}
		watches = map[uint64]*watchState{}
		watchMu.Unlock()
		for _, st := range ws {
			st.cancel()
			<-st.done
		}
	}()

	var fr wire.FrameReader
	for {
		// EOF, reset or garbage: the session dies with the connection.
		typ, payload, err := fr.Read(conn, &proto)
		if err != nil || typ != frameRequest {
			return
		}
		var req wireReq
		if decode(payload, req.decode) != nil {
			return
		}
		resp := wireResp{ID: req.ID}
		switch req.Op {
		case opCreate:
			resp.Code, resp.Err = errToCode(sess.Create(req.Path, req.Data))
		case opCreateEphemeral:
			resp.Code, resp.Err = errToCode(sess.CreateEphemeral(req.Path, req.Data))
		case opCreateAll:
			resp.Code, resp.Err = errToCode(sess.CreateAll(req.Path, req.Data))
		case opGet:
			data, version, err := sess.Get(req.Path)
			resp.Data, resp.Version = data, version
			resp.Code, resp.Err = errToCode(err)
		case opSet:
			version, err := sess.Set(req.Path, req.Data, req.Version)
			resp.Version = version
			resp.Code, resp.Err = errToCode(err)
		case opDelete:
			resp.Code, resp.Err = errToCode(sess.Delete(req.Path, req.Version))
		case opExists:
			resp.Bool = sess.Exists(req.Path)
		case opChildren:
			names, err := sess.Children(req.Path)
			resp.Names = names
			resp.Code, resp.Err = errToCode(err)
		case opWatch, opWatchChildren:
			var events <-chan Event
			var cancel func()
			if req.Op == opWatch {
				events, cancel = sess.Watch(req.Path)
			} else {
				events, cancel = sess.WatchChildren(req.Path)
			}
			id := req.WatchID
			st := &watchState{cancel: cancel, done: make(chan struct{})}
			watchMu.Lock()
			watches[id] = st
			watchMu.Unlock()
			go func() {
				defer close(st.done)
				for ev := range events {
					msg := wireEvent{WatchID: id, Type: ev.Type, Path: ev.Path}
					if w.send(frameEvent, msg.encode) != nil {
						// Writer broken: the read loop will notice the dead
						// connection and tear the session down; drain so
						// cancel() can close the channel.
						for range events {
						}
						return
					}
				}
			}()
			resp.WatchID = id
		case opUnwatch:
			watchMu.Lock()
			st := watches[req.WatchID]
			delete(watches, req.WatchID)
			watchMu.Unlock()
			if st != nil {
				st.cancel()
				<-st.done
			}
		default:
			resp.Code, resp.Err = wireErrOther, "unknown op"
		}
		if w.send(frameResponse, resp.encode) != nil {
			return
		}
	}
}

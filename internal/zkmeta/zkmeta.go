// Package zkmeta is the Zookeeper substrate: an in-memory hierarchical
// metadata store with versioned compare-and-set writes, one-shot-free
// (persistent) watches, ephemeral nodes and session expiry. Pinot stores all
// cluster state, segment assignment and metadata here (paper section 3.2),
// and Helix-style cluster management is built on its watch + ephemeral
// primitives.
package zkmeta

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Errors returned by store operations.
var (
	ErrNoNode        = errors.New("zkmeta: node does not exist")
	ErrNodeExists    = errors.New("zkmeta: node already exists")
	ErrBadVersion    = errors.New("zkmeta: version mismatch")
	ErrNotEmpty      = errors.New("zkmeta: node has children")
	ErrNoParent      = errors.New("zkmeta: parent node does not exist")
	ErrSessionClosed = errors.New("zkmeta: session closed")
)

// EventType describes a watch notification.
type EventType uint8

// Watch event types.
const (
	EventCreated EventType = iota
	EventDataChanged
	EventDeleted
	EventChildrenChanged
)

func (t EventType) String() string {
	switch t {
	case EventCreated:
		return "created"
	case EventDataChanged:
		return "dataChanged"
	case EventDeleted:
		return "deleted"
	case EventChildrenChanged:
		return "childrenChanged"
	}
	return "unknown"
}

// Event is a watch notification.
type Event struct {
	Type EventType
	Path string
}

type node struct {
	data      []byte
	version   int
	children  map[string]*node
	ephemeral *Session // owner session for ephemeral nodes, nil otherwise
}

type watcher struct {
	ch       chan Event
	children bool // fires on child membership changes of Path
	owner    *Session
	closed   bool
}

// Store is the metadata tree shared by all sessions.
type Store struct {
	mu       sync.Mutex
	root     *node
	watchers map[string][]*watcher // path -> watchers
	sessions map[*Session]struct{}
}

// NewStore returns an empty store with a root node "/".
func NewStore() *Store {
	return &Store{
		root:     &node{children: map[string]*node{}},
		watchers: map[string][]*watcher{},
		sessions: map[*Session]struct{}{},
	}
}

// NewSession opens a session. Ephemeral nodes created through it are removed
// when the session closes or expires.
func (s *Store) NewSession() *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := &Session{store: s, ephemerals: map[string]struct{}{}}
	s.sessions[sess] = struct{}{}
	return sess
}

func splitPath(path string) ([]string, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("zkmeta: path %q must be absolute", path)
	}
	if path == "/" {
		return nil, nil
	}
	parts := strings.Split(path[1:], "/")
	for _, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("zkmeta: path %q has empty component", path)
		}
	}
	return parts, nil
}

func parentPath(path string) string {
	i := strings.LastIndex(path, "/")
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

// locked helpers

func (s *Store) lookup(path string) (*node, error) {
	parts, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	n := s.root
	for _, p := range parts {
		child, ok := n.children[p]
		if !ok {
			return nil, ErrNoNode
		}
		n = child
	}
	return n, nil
}

func (s *Store) notify(path string, t EventType) {
	for _, w := range s.watchers[path] {
		if !w.closed && !w.children {
			select {
			case w.ch <- Event{Type: t, Path: path}:
			default: // drop on overflow; watchers must re-read state anyway
			}
		}
	}
}

func (s *Store) notifyChildren(parent string) {
	for _, w := range s.watchers[parent] {
		if !w.closed && w.children {
			select {
			case w.ch <- Event{Type: EventChildrenChanged, Path: parent}:
			default:
			}
		}
	}
}

func (s *Store) createLocked(sess *Session, path string, data []byte, ephemeral bool) error {
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return ErrNodeExists
	}
	n := s.root
	for _, p := range parts[:len(parts)-1] {
		child, ok := n.children[p]
		if !ok {
			return ErrNoParent
		}
		n = child
	}
	name := parts[len(parts)-1]
	if _, exists := n.children[name]; exists {
		return ErrNodeExists
	}
	nn := &node{data: append([]byte(nil), data...), children: map[string]*node{}}
	if ephemeral {
		nn.ephemeral = sess
		sess.ephemerals[path] = struct{}{}
	}
	n.children[name] = nn
	s.notify(path, EventCreated)
	s.notifyChildren(parentPath(path))
	return nil
}

func (s *Store) deleteLocked(path string, expectedVersion int) error {
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	if len(parts) == 0 {
		return errors.New("zkmeta: cannot delete root")
	}
	parent := s.root
	for _, p := range parts[:len(parts)-1] {
		child, ok := parent.children[p]
		if !ok {
			return ErrNoNode
		}
		parent = child
	}
	name := parts[len(parts)-1]
	n, ok := parent.children[name]
	if !ok {
		return ErrNoNode
	}
	if expectedVersion >= 0 && n.version != expectedVersion {
		return ErrBadVersion
	}
	if len(n.children) > 0 {
		return ErrNotEmpty
	}
	if n.ephemeral != nil {
		delete(n.ephemeral.ephemerals, path)
	}
	delete(parent.children, name)
	s.notify(path, EventDeleted)
	s.notifyChildren(parentPath(path))
	return nil
}

// Session is one client's connection to the store.
type Session struct {
	store      *Store
	ephemerals map[string]struct{}
	closed     bool
	expireCbs  []func()
}

func (sess *Session) check() error {
	if sess.closed {
		return ErrSessionClosed
	}
	return nil
}

// Create adds a node. The parent must exist.
func (sess *Session) Create(path string, data []byte) error {
	sess.store.mu.Lock()
	defer sess.store.mu.Unlock()
	if err := sess.check(); err != nil {
		return err
	}
	return sess.store.createLocked(sess, path, data, false)
}

// CreateEphemeral adds a node that disappears when the session ends.
func (sess *Session) CreateEphemeral(path string, data []byte) error {
	sess.store.mu.Lock()
	defer sess.store.mu.Unlock()
	if err := sess.check(); err != nil {
		return err
	}
	return sess.store.createLocked(sess, path, data, true)
}

// CreateAll creates the node and any missing ancestors (persistent).
func (sess *Session) CreateAll(path string, data []byte) error {
	sess.store.mu.Lock()
	defer sess.store.mu.Unlock()
	if err := sess.check(); err != nil {
		return err
	}
	parts, err := splitPath(path)
	if err != nil {
		return err
	}
	cur := ""
	for i, p := range parts {
		cur += "/" + p
		var d []byte
		if i == len(parts)-1 {
			d = data
		}
		if err := sess.store.createLocked(sess, cur, d, false); err != nil && !errors.Is(err, ErrNodeExists) {
			return err
		} else if i == len(parts)-1 && errors.Is(err, ErrNodeExists) {
			return err
		}
	}
	return nil
}

// Get returns a node's data and version.
func (sess *Session) Get(path string) ([]byte, int, error) {
	sess.store.mu.Lock()
	defer sess.store.mu.Unlock()
	if err := sess.check(); err != nil {
		return nil, 0, err
	}
	n, err := sess.store.lookup(path)
	if err != nil {
		return nil, 0, err
	}
	return append([]byte(nil), n.data...), n.version, nil
}

// Set replaces a node's data. expectedVersion -1 skips the version check;
// otherwise the write fails with ErrBadVersion unless it matches.
func (sess *Session) Set(path string, data []byte, expectedVersion int) (int, error) {
	sess.store.mu.Lock()
	defer sess.store.mu.Unlock()
	if err := sess.check(); err != nil {
		return 0, err
	}
	n, err := sess.store.lookup(path)
	if err != nil {
		return 0, err
	}
	if expectedVersion >= 0 && n.version != expectedVersion {
		return 0, ErrBadVersion
	}
	n.data = append([]byte(nil), data...)
	n.version++
	sess.store.notify(path, EventDataChanged)
	return n.version, nil
}

// Delete removes a leaf node, with optional version check (-1 = any).
func (sess *Session) Delete(path string, expectedVersion int) error {
	sess.store.mu.Lock()
	defer sess.store.mu.Unlock()
	if err := sess.check(); err != nil {
		return err
	}
	return sess.store.deleteLocked(path, expectedVersion)
}

// Exists reports whether a node exists.
func (sess *Session) Exists(path string) bool {
	sess.store.mu.Lock()
	defer sess.store.mu.Unlock()
	if sess.closed {
		return false
	}
	_, err := sess.store.lookup(path)
	return err == nil
}

// Children returns the sorted child names of a node.
func (sess *Session) Children(path string) ([]string, error) {
	sess.store.mu.Lock()
	defer sess.store.mu.Unlock()
	if err := sess.check(); err != nil {
		return nil, err
	}
	n, err := sess.store.lookup(path)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(n.children))
	for name := range n.children {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// Watch subscribes to created/changed/deleted events for a path. The watch
// persists until Unwatch or session close. Events may be dropped under
// extreme load; consumers must treat events as hints and re-read state.
func (sess *Session) Watch(path string) (<-chan Event, func()) {
	return sess.watch(path, false)
}

// WatchChildren subscribes to child membership changes of a path.
func (sess *Session) WatchChildren(path string) (<-chan Event, func()) {
	return sess.watch(path, true)
}

func (sess *Session) watch(path string, children bool) (<-chan Event, func()) {
	sess.store.mu.Lock()
	defer sess.store.mu.Unlock()
	w := &watcher{ch: make(chan Event, 4096), children: children, owner: sess}
	if sess.closed {
		close(w.ch)
		return w.ch, func() {}
	}
	sess.store.watchers[path] = append(sess.store.watchers[path], w)
	cancel := func() {
		sess.store.mu.Lock()
		defer sess.store.mu.Unlock()
		if w.closed {
			return
		}
		w.closed = true
		ws := sess.store.watchers[path]
		for i, x := range ws {
			if x == w {
				sess.store.watchers[path] = append(ws[:i], ws[i+1:]...)
				break
			}
		}
		close(w.ch)
	}
	return w.ch, cancel
}

// OnExpire registers fn to run when the session closes or expires. Callbacks
// fire after the session's ephemeral nodes have been removed (so watches on
// them have already seen the deletions) and outside the store lock, so they
// may open a new session: Kept reopens its role's session from here.
func (sess *Session) OnExpire(fn func()) {
	sess.store.mu.Lock()
	defer sess.store.mu.Unlock()
	sess.expireCbs = append(sess.expireCbs, fn)
}

// Expired reports whether the session has been closed or expired.
func (sess *Session) Expired() bool {
	sess.store.mu.Lock()
	defer sess.store.mu.Unlock()
	return sess.closed
}

// Close ends the session: ephemeral nodes it owns are deleted (firing
// watches), then its own watches close, and further operations fail. Expire
// is an alias used by failure tests.
func (sess *Session) Close() {
	sess.store.mu.Lock()
	if sess.closed {
		sess.store.mu.Unlock()
		return
	}
	sess.closed = true
	paths := make([]string, 0, len(sess.ephemerals))
	for p := range sess.ephemerals {
		paths = append(paths, p)
	}
	// Deepest first so parents empty out.
	sort.Slice(paths, func(i, j int) bool { return len(paths[i]) > len(paths[j]) })
	for _, p := range paths {
		_ = sess.store.deleteLocked(p, -1)
	}
	// Its watches close with it, as a remote session's do.
	for path, ws := range sess.store.watchers {
		sess.store.watchers[path] = slices.DeleteFunc(ws, func(w *watcher) bool {
			if w.owner == sess {
				w.closed = true
				close(w.ch)
			}
			return w.owner == sess
		})
	}
	delete(sess.store.sessions, sess)
	cbs := sess.expireCbs
	sess.expireCbs = nil
	sess.store.mu.Unlock()
	for _, fn := range cbs {
		fn()
	}
}

// Expire simulates session expiry (identical to Close).
func (sess *Session) Expire() { sess.Close() }

package zkmeta

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kept holds one live session on an endpoint for a role instance and runs
// the role's onSession (register ephemerals, arm watches) on every new one:
// nothing carries over from a lost session, whose watches close with it.
// The first reopen after an expiry runs inline in the expiry callback, so an
// in-process Expire is healed before it returns; a failed dial or onSession
// is retried with backoff until one succeeds or Close ends the loop.
type Kept struct {
	ep        Endpoint
	onSession func(Client) error
	done      chan struct{} // closed by Close
	live      atomic.Bool   // onSession accepted the current session
	loops     sync.WaitGroup

	opening sync.Mutex // one replacement at a time
	mu      sync.Mutex
	sess    Client
}

// Keep opens the first session inline and keeps one live from then on.
func Keep(ep Endpoint, onSession func(Client) error) *Kept {
	k := &Kept{ep: ep, onSession: onSession, done: make(chan struct{})}
	k.renew(nil)
	return k
}

// Client returns the current session, expired between a loss and its reopen.
func (k *Kept) Client() Client {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.sess
}

// Live reports whether the current session is open and onSession ran on it.
func (k *Kept) Live() bool { return k.live.Load() && !k.Client().Expired() }

// Go runs one of the role's loops until Close, which waits for it to return.
func (k *Kept) Go(loop func(done <-chan struct{})) {
	k.loops.Add(1)
	go func() {
		defer k.loops.Done()
		loop(k.done)
	}()
}

// Expire expires the current session: every role's one chaos hook.
func (k *Kept) Expire() { k.Client().Expire() }

// Close ends the reopening, then the current session, and waits for the
// role's loops to return: a closed role never rejoins.
func (k *Kept) Close() {
	k.mu.Lock()
	if !k.closed() {
		close(k.done)
	}
	s := k.sess
	k.mu.Unlock()
	s.Close()
	k.live.Store(false)
	k.loops.Wait()
}

// renew replaces old: one attempt inline, then retries with backoff.
func (k *Kept) renew(old Client) {
	s, ok := k.open(old)
	if ok {
		return
	}
	go func() {
		for wait := 10 * time.Millisecond; !ok; wait = min(2*wait, time.Second) {
			select {
			case <-k.done:
				return
			case <-time.After(wait):
			}
			s, ok = k.open(s)
		}
	}()
}

// open replaces old, unless it was replaced already or k is closed, and
// reports false only if this attempt failed, leaving its session current.
func (k *Kept) open(old Client) (Client, bool) {
	k.opening.Lock()
	defer k.opening.Unlock()
	if k.Client() != old || k.closed() {
		return nil, true
	}
	k.live.Store(false)
	s := k.ep.NewClient()
	k.mu.Lock()
	k.sess = s
	k.mu.Unlock()
	if err := k.onSession(s); err != nil || k.closed() {
		s.Close()
		return s, err == nil
	}
	s.OnExpire(func() { k.renew(s) })
	k.live.Store(!s.Expired()) // an expiry before OnExpire was armed is retried
	return s, k.live.Load()
}

func (k *Kept) closed() bool {
	select {
	case <-k.done:
		return true
	default:
		return false
	}
}

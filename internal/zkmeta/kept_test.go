package zkmeta

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
)

// register is an onSession that publishes /live over each session it is
// given, failing the first `fail` times, and counts its runs.
type register struct {
	runs atomic.Int32
	fail int32
}

func (r *register) onSession(s Client) error {
	if r.runs.Add(1) <= r.fail {
		return errors.New("refused")
	}
	return s.CreateEphemeral("/live", nil)
}

// TestKeptReopensInlineOnExpiry: an in-process expiry is healed before
// Expire returns: a new session, onSession run again, the ephemeral back.
func TestKeptReopensInlineOnExpiry(t *testing.T) {
	store := NewStore()
	r := &register{}
	k := Keep(store, r.onSession)
	defer k.Close()
	first := k.Client()
	k.Expire()
	if !first.Expired() || k.Client() == first || !k.Live() || r.runs.Load() != 2 {
		t.Fatalf("after Expire: old expired %v, replaced %v, live %v, onSession runs %d",
			first.Expired(), k.Client() != first, k.Live(), r.runs.Load())
	}
	if !store.NewSession().Exists("/live") {
		t.Fatal("the ephemeral was not re-created")
	}
}

// TestKeptRetriesAFailedOnSession: a refused onSession closes its session and
// is retried on a fresh one until it is accepted.
func TestKeptRetriesAFailedOnSession(t *testing.T) {
	r := &register{fail: 2}
	k := Keep(NewStore(), r.onSession)
	defer k.Close()
	if k.Live() {
		t.Fatal("live after a refused onSession")
	}
	waitFor(t, "an accepted session", k.Live)
	if got := r.runs.Load(); got != 3 {
		t.Fatalf("onSession ran %d times, want 3", got)
	}
}

// TestKeptDialsUntilTheEndpointListens: a session kept on an endpoint that
// is down opens once it listens; after Close, nothing reopens.
func TestKeptDialsUntilTheEndpointListens(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	r := &register{}
	k := Keep(NewRemote(addr), r.onSession)
	if k.Live() || !k.Client().Expired() {
		t.Fatal("live with the endpoint down")
	}
	if lis, err = net.Listen("tcp", addr); err != nil {
		t.Fatal(err)
	}
	srv := NewTCPServer(NewStore())
	go srv.Serve(lis)
	defer srv.Close()
	waitFor(t, "a session once the endpoint listens", k.Live)

	k.Close()
	runs := r.runs.Load()
	k.Expire()
	if k.Live() || !k.Client().Expired() || r.runs.Load() != runs {
		t.Fatal("a closed Kept reopened")
	}
}

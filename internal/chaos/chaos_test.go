package chaos

import (
	"context"
	"errors"
	"testing"
	"time"

	"pinot/internal/pql"
	"pinot/internal/query"
	"pinot/internal/transport"
)

type fakeServer struct {
	calls int
}

func (f *fakeServer) Execute(ctx context.Context, req *transport.QueryRequest) (*transport.QueryResponse, error) {
	f.calls++
	inter := query.NewAggIntermediate([]pql.Expression{{IsAgg: true, Func: pql.Count, Column: "*"}})
	return &transport.QueryResponse{Result: inter}, nil
}

func registryWith(f *fakeServer) *Registry {
	inner := transport.RegistryFunc(func(instance string) (transport.ServerClient, bool) {
		if instance == "server1" {
			return f, true
		}
		return nil, false
	})
	return NewRegistry(inner, 42)
}

func exec(t *testing.T, r *Registry, ctx context.Context) (*transport.QueryResponse, error) {
	t.Helper()
	c, ok := r.ServerClient("server1")
	if !ok {
		t.Fatal("no client")
	}
	return c.Execute(ctx, &transport.QueryRequest{PQL: "SELECT count(*) FROM t"})
}

func TestPassthroughWithoutPolicy(t *testing.T) {
	f := &fakeServer{}
	r := registryWith(f)
	resp, err := exec(t, r, context.Background())
	if err != nil || resp.Result == nil {
		t.Fatalf("passthrough: %v %v", resp, err)
	}
	if _, ok := r.ServerClient("nosuch"); ok {
		t.Fatal("unknown instance resolved")
	}
}

func TestFailFirstThenRecover(t *testing.T) {
	f := &fakeServer{}
	r := registryWith(f)
	r.SetFault("server1", Fault{FailFirst: 2})
	for i := 0; i < 2; i++ {
		if _, err := exec(t, r, context.Background()); !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d: err = %v, want injected", i, err)
		}
	}
	if _, err := exec(t, r, context.Background()); err != nil {
		t.Fatalf("recovered call failed: %v", err)
	}
	if f.calls != 1 {
		t.Fatalf("inner calls = %d, want 1 (failed calls never reach the server)", f.calls)
	}
	if got := r.Calls("server1"); got != 3 {
		t.Fatalf("calls = %d", got)
	}
	if got := r.Injected("server1"); got != 2 {
		t.Fatalf("injected = %d", got)
	}
}

func TestFailEvery(t *testing.T) {
	f := &fakeServer{}
	r := registryWith(f)
	r.SetFault("server1", Fault{FailEvery: 3})
	var failures []int
	for i := 1; i <= 9; i++ {
		if _, err := exec(t, r, context.Background()); err != nil {
			failures = append(failures, i)
		}
	}
	if len(failures) != 3 || failures[0] != 3 || failures[1] != 6 || failures[2] != 9 {
		t.Fatalf("failures at %v, want [3 6 9]", failures)
	}
}

func TestHangUntilCancel(t *testing.T) {
	f := &fakeServer{}
	r := registryWith(f)
	r.SetFault("server1", Fault{Hang: true})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := exec(t, r, ctx)
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("hang returned %v", err)
	}
	if f.calls != 0 {
		t.Fatal("hung call reached the server")
	}
}

func TestStallForIgnoresCancellation(t *testing.T) {
	f := &fakeServer{}
	r := registryWith(f)
	r.SetFault("server1", Fault{StallFor: 60 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: a cooperative fault would return instantly
	start := time.Now()
	_, err := exec(t, r, ctx)
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("stall returned after %v, want >= 60ms despite cancelled ctx", elapsed)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if f.calls != 0 {
		t.Fatal("stalled call reached the server")
	}
	if got := r.Injected("server1"); got != 1 {
		t.Fatalf("injected = %d", got)
	}
}

func TestCorruptRejectedByValidation(t *testing.T) {
	f := &fakeServer{}
	r := registryWith(f)
	r.SetFault("server1", Fault{Corrupt: true})
	resp, err := exec(t, r, context.Background())
	if err != nil {
		t.Fatal(err)
	}
	q, err := pql.Parse("SELECT count(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Result.Conforms(q); err == nil {
		t.Fatal("corrupted response passed shape validation")
	}
	// Corruption is per call: the server's next response is clean.
	clean, err := f.Execute(context.Background(), nil)
	if err != nil || clean.Result.Conforms(q) != nil {
		t.Fatal("corruption leaked into server-side response")
	}
}

func TestCustomError(t *testing.T) {
	f := &fakeServer{}
	r := registryWith(f)
	sentinel := errors.New("boom")
	r.SetFault("server1", Fault{FailAll: true, Err: sentinel})
	if _, err := exec(t, r, context.Background()); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	r.Clear("server1")
	if _, err := exec(t, r, context.Background()); err != nil {
		t.Fatalf("cleared policy still failing: %v", err)
	}
}

func TestLatencyIsCancellable(t *testing.T) {
	f := &fakeServer{}
	r := registryWith(f)
	r.SetFault("server1", Fault{Latency: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := exec(t, r, ctx)
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("delayed call returned %v", err)
	}
}

func TestDeterministicJitterSchedule(t *testing.T) {
	schedule := func() []time.Duration {
		r := NewRegistry(transport.RegistryFunc(func(string) (transport.ServerClient, bool) { return nil, false }), 7)
		r.SetFault("server1", Fault{Jitter: 50 * time.Millisecond})
		var out []time.Duration
		for i := 0; i < 16; i++ {
			out = append(out, r.decide("server1").delay)
		}
		return out
	}
	a, b := schedule(), schedule()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter schedule diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

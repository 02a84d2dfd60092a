// Package chaos is a deterministic fault-injection layer for the query data
// plane. It wraps a transport.Registry so that every broker→server call can
// be delayed, failed, hung until context cancellation, or corrupted
// according to a per-instance Fault policy. All randomness comes from a
// seeded generator and all fault schedules are count-based (the Nth call
// fails, not the call at time T), so cluster-level scenarios are exactly
// reproducible under a fixed seed.
//
// Session expiry (zkmeta) and partition stalls (stream) have their own hooks
// in those packages — Controller.ExpireSession and Topic.StallPartition —
// so composed scenarios like "replica dies mid-scatter while the lead
// controller loses its ZK session" are driven from one test body.
package chaos

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"pinot/internal/query"
	"pinot/internal/transport"
)

// ErrInjected is the default error returned by injected failures.
var ErrInjected = errors.New("chaos: injected fault")

// Fault is the policy applied to one server instance. The zero value is a
// passthrough. Latency/Jitter compose with the failure modes: a call is
// delayed first, then failed/hung/corrupted.
type Fault struct {
	// Latency delays every call by this fixed amount.
	Latency time.Duration
	// Jitter adds a seeded-random delay in [0, Jitter).
	Jitter time.Duration
	// FailFirst fails the first N calls, then recovers (the
	// N-failures-then-recover policy). Ignored when FailAll is set.
	FailFirst int
	// FailAll fails every call.
	FailAll bool
	// FailEvery fails every Kth call (1-indexed: calls K, 2K, ...).
	FailEvery int
	// Hang blocks calls until their context is cancelled, then returns the
	// context error — the "server stops answering mid-query" mode.
	Hang bool
	// StallFor blocks calls for the full duration, IGNORING context
	// cancellation, then fails — the "straggler that never learned to
	// cooperate" mode. Unlike Hang, the goroutine stays occupied past the
	// query deadline, which is exactly what a broker must tolerate without
	// leaking its own gather goroutines.
	StallFor time.Duration
	// Corrupt lets the call through but mangles the response payload so
	// it no longer matches the query shape, modelling wire corruption.
	Corrupt bool
	// Err overrides ErrInjected as the injected error.
	Err error
}

func (f Fault) err() error {
	if f.Err != nil {
		return f.Err
	}
	return ErrInjected
}

type instanceState struct {
	fault    Fault
	calls    int // total calls observed
	injected int // calls that had a fault injected
}

// Registry wraps an inner transport.Registry with fault injection. Instances
// without a policy pass through untouched.
type Registry struct {
	inner transport.Registry

	mu     sync.Mutex
	rnd    *rand.Rand
	states map[string]*instanceState
}

// NewRegistry wraps inner. The seed drives jitter; fixed seed + fixed call
// order = identical schedule.
func NewRegistry(inner transport.Registry, seed int64) *Registry {
	if seed == 0 {
		seed = 1
	}
	return &Registry{
		inner:  inner,
		rnd:    rand.New(rand.NewSource(seed)),
		states: map[string]*instanceState{},
	}
}

// SetFault installs (or replaces) the policy for an instance and resets its
// counters.
func (r *Registry) SetFault(instance string, f Fault) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.states[instance] = &instanceState{fault: f}
}

// Clear removes the policy for an instance (counters included).
func (r *Registry) Clear(instance string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.states, instance)
}

// Calls returns how many calls the instance has received since its policy
// was installed.
func (r *Registry) Calls(instance string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.states[instance]; ok {
		return st.calls
	}
	return 0
}

// Injected returns how many calls had a fault injected.
func (r *Registry) Injected(instance string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st, ok := r.states[instance]; ok {
		return st.injected
	}
	return 0
}

// ServerClient implements transport.Registry.
func (r *Registry) ServerClient(instance string) (transport.ServerClient, bool) {
	inner, ok := r.inner.ServerClient(instance)
	if !ok {
		return nil, false
	}
	return &client{reg: r, instance: instance, inner: inner}, true
}

// action is the decision for one call, taken under the registry lock so the
// schedule is a pure function of call order.
type action struct {
	delay   time.Duration
	fail    bool
	hang    bool
	stall   time.Duration
	corrupt bool
	err     error
}

func (r *Registry) decide(instance string) action {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.states[instance]
	if !ok {
		return action{}
	}
	st.calls++
	f := st.fault
	a := action{delay: f.Latency}
	if f.Jitter > 0 {
		a.delay += time.Duration(r.rnd.Int63n(int64(f.Jitter)))
	}
	switch {
	case f.Hang:
		a.hang = true
	case f.StallFor > 0:
		a.stall, a.err = f.StallFor, f.err()
	case f.FailAll:
		a.fail, a.err = true, f.err()
	case f.FailFirst > 0 && st.calls <= f.FailFirst:
		a.fail, a.err = true, f.err()
	case f.FailEvery > 0 && st.calls%f.FailEvery == 0:
		a.fail, a.err = true, f.err()
	case f.Corrupt:
		a.corrupt = true
	}
	if a.fail || a.hang || a.stall > 0 || a.corrupt {
		st.injected++
	}
	return a
}

// client wraps one server's query client with the registry's policy.
type client struct {
	reg      *Registry
	instance string
	inner    transport.ServerClient
}

// Execute applies the instance's fault policy around the inner call.
func (c *client) Execute(ctx context.Context, req *transport.QueryRequest) (*transport.QueryResponse, error) {
	a := c.reg.decide(c.instance)
	if a.delay > 0 {
		t := time.NewTimer(a.delay)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
	switch {
	case a.hang:
		<-ctx.Done()
		return nil, ctx.Err()
	case a.stall > 0:
		// Deliberately NOT selecting on ctx.Done(): the point is to model a
		// server that keeps grinding past cancellation.
		time.Sleep(a.stall)
		return nil, a.err
	case a.fail:
		return nil, a.err
	}
	resp, err := c.inner.Execute(ctx, req)
	if err != nil {
		return nil, err
	}
	if a.corrupt {
		return corruptResponse(resp), nil
	}
	return resp, nil
}

// corruptResponse mangles a response so its payload no longer matches any
// query shape. The response was decoded off the wire for this caller alone,
// so it is changed in place.
func corruptResponse(resp *transport.QueryResponse) *transport.QueryResponse {
	if r := resp.Result; r != nil {
		// An impossible result shape: no decoder or planner produces
		// kind 255, so shape validation rejects it downstream.
		r.Kind = query.ResultKind(255)
		r.Groups = nil
		r.Rows = nil
	}
	return resp
}

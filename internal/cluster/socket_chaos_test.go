package cluster

import (
	"context"
	"testing"
	"time"

	"pinot/internal/broker"
	"pinot/internal/chaos"
	"pinot/internal/helix"
	"pinot/internal/metrics"
	"pinot/internal/transport"
)

// socketEnv wires an extra broker whose scatter path runs through a
// chaos.Proxy in front of each server's advertised data-plane address. The
// base cluster keeps its own brokers untouched; the proxied broker gets its
// own metrics registry so assertions see only its traffic.
type socketEnv struct {
	c       *Cluster
	proxies map[string]*chaos.Proxy
	calls   *chaos.Registry
	met     *metrics.Registry
	br      *broker.Broker
}

// newSocketEnv builds a two-server cluster with 2x-replicated offline data,
// fronts every server with a fault proxy and starts a broker that scatters
// through the proxies.
func newSocketEnv(t *testing.T, cfg broker.Config) *socketEnv {
	t.Helper()
	c, err := NewLocal(Options{Servers: 2, BrokerTemplate: chaosBrokerConfig()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	loadOffline(t, c, 2)

	e := &socketEnv{c: c, proxies: map[string]*chaos.Proxy{}, met: metrics.NewRegistry()}
	admin := helix.NewAdmin(c.adminSess, c.Name)
	for _, s := range []string{"server1", "server2"} {
		cfg, err := admin.InstanceConfigOf(s)
		if err != nil || cfg.Addr == "" {
			t.Fatalf("no advertised address for %s: %+v, %v", s, cfg, err)
		}
		p, err := chaos.NewProxy(cfg.Addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		e.proxies[s] = p
	}

	pool := transport.NewPool()
	t.Cleanup(pool.Close)
	base := transport.NewTCPRegistry(func(instance string) (string, bool) {
		p, ok := e.proxies[instance]
		if !ok {
			return "", false
		}
		return p.Addr(), true
	}, pool)
	// The chaos registry is used fault-free here, purely for its per-server
	// call counting: it tells us which replica the routing table targets.
	e.calls = chaos.NewRegistry(base, 1)

	cfg.Cluster = c.Name
	cfg.Instance = "broker-tcp"
	cfg.Metrics = e.met
	e.br = broker.New(cfg, c.Store, e.calls)
	if err := e.br.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.br.Stop)
	return e
}

func (e *socketEnv) query(t *testing.T) *broker.Response {
	t.Helper()
	res, err := e.br.Execute(context.Background(), "SELECT count(*), sum(clicks) FROM events", "")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// victim runs one clean query over the sockets and reports a server the TCP
// broker's routing table actually sends traffic to.
func (e *socketEnv) victim(t *testing.T) string {
	t.Helper()
	for _, s := range []string{"server1", "server2"} {
		e.calls.SetFault(s, chaos.Fault{})
	}
	assertFullCount(t, e.query(t))
	for _, s := range []string{"server1", "server2"} {
		if e.calls.Calls(s) > 0 {
			return s
		}
	}
	t.Fatal("no server received socket traffic")
	return ""
}

// untilProxyFaultExercised mirrors untilFaultExercised at the socket layer:
// it installs f on a traffic-bearing server's proxy (optionally severing its
// pooled connections, the replica-death model) and runs attempt until the
// proxy actually fired the fault at least once.
func (e *socketEnv) untilProxyFaultExercised(t *testing.T, f chaos.ProxyFault, sever bool, attempt func(t *testing.T, victim string)) string {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		victim := e.victim(t)
		pv := e.proxies[victim]
		before := pv.Faulted()
		pv.SetFault(f)
		if sever {
			pv.SeverAll()
		}
		attempt(t, victim)
		exercised := pv.Faulted() > before
		pv.Clear()
		e.proxies[other(victim)].Clear()
		if exercised {
			return victim
		}
		if time.Now().After(deadline) {
			t.Fatal("socket fault was never exercised")
		}
	}
}

// TestSocketChaosReplicaDeathRetryRecovers ports the headline PR 1 scenario
// to real sockets: one replica's address goes dead (pooled connections
// reset, new dials rejected) mid-workload, yet the broker's retry path
// still assembles the correct full result from the surviving replica — and
// the recovery is visible in the retry and recovered-exception metrics.
func TestSocketChaosReplicaDeathRetryRecovers(t *testing.T) {
	e := newSocketEnv(t, chaosBrokerConfig())

	var last *broker.Response
	victim := e.untilProxyFaultExercised(t, chaos.ProxyFault{RejectConnections: true}, true, func(t *testing.T, victim string) {
		res := e.query(t)
		assertFullCount(t, res)
		last = res
	})
	recovered := 0
	for _, ex := range last.ServerExceptions {
		if ex.Server == victim && ex.Recovered {
			recovered++
		}
	}
	if recovered == 0 {
		t.Fatalf("no recovered exception for %s: %+v", victim, last.ServerExceptions)
	}
	if got := e.met.Value("pinot_broker_retries_total"); got == 0 {
		t.Fatal("pinot_broker_retries_total = 0 after a replica died at the socket layer")
	}
	if got := e.met.Value("pinot_broker_server_exceptions_total", "true"); got == 0 {
		t.Fatal(`pinot_broker_server_exceptions_total{recovered="true"} = 0 after recovery`)
	}
}

// TestSocketChaosHalfOpenHangRecoveredByDeadline: the proxy stops forwarding
// mid-frame without closing anything — a half-open connection that no error
// will ever surface. Only the per-server deadline gets the broker out, and
// the retry path must then recover the full result.
func TestSocketChaosHalfOpenHangRecoveredByDeadline(t *testing.T) {
	cfg := chaosBrokerConfig()
	// Each server attempt gets half the query timeout: 200 ms here.
	cfg.QueryTimeout = 400 * time.Millisecond
	e := newSocketEnv(t, cfg)

	var last *broker.Response
	victim := e.untilProxyFaultExercised(t, chaos.ProxyFault{HangAfterResponseBytes: 4}, false, func(t *testing.T, victim string) {
		res := e.query(t)
		assertFullCount(t, res)
		last = res
	})
	recovered := false
	for _, ex := range last.ServerExceptions {
		if ex.Server == victim && ex.Recovered {
			recovered = true
		}
	}
	if !recovered {
		t.Fatalf("half-open hang not recovered: %+v", last.ServerExceptions)
	}
	if got := e.met.Value("pinot_broker_retries_total"); got == 0 {
		t.Fatal("pinot_broker_retries_total = 0 after half-open hang")
	}
}

// TestSocketChaosSlowDripStragglerHedged: a replica that drips its response
// a byte at a time is a straggler, not a failure — the hedged duplicate to
// the other replica masks it, before any retry.
func TestSocketChaosSlowDripStragglerHedged(t *testing.T) {
	cfg := chaosBrokerConfig()
	cfg.QueryTimeout = 10 * time.Second
	cfg.HedgeDelay = 20 * time.Millisecond
	e := newSocketEnv(t, cfg)

	e.untilProxyFaultExercised(t, chaos.ProxyFault{DripDelay: 20 * time.Millisecond, DripChunk: 1}, false, func(t *testing.T, victim string) {
		res := e.query(t)
		assertFullCount(t, res)
	})
	if got := e.met.Value("pinot_broker_hedges_total"); got == 0 {
		t.Fatal("pinot_broker_hedges_total = 0 after slow-drip straggler")
	}
	if got := e.met.Value("pinot_broker_retries_total"); got != 0 {
		t.Fatalf("pinot_broker_retries_total = %d, want 0 (the hedge answered)", got)
	}
}

// TestSocketChaosMidFrameResetRecovers: the connection is hard-reset (RST)
// four bytes into the response — inside the first frame header. The client
// must treat the torn frame as a transport error, discard the connection
// and let the retry path recover the full result.
func TestSocketChaosMidFrameResetRecovers(t *testing.T) {
	e := newSocketEnv(t, chaosBrokerConfig())

	e.untilProxyFaultExercised(t, chaos.ProxyFault{ResetAfterResponseBytes: 4}, false, func(t *testing.T, victim string) {
		res := e.query(t)
		assertFullCount(t, res)
	})
	if got := e.met.Value("pinot_broker_retries_total"); got == 0 {
		t.Fatal("pinot_broker_retries_total = 0 after mid-frame reset")
	}
}

// TestSocketChaosCorruptFrameExplicitPartialNeverWrong: every response from
// every replica has one bit flipped in the frame header's version byte.
// Corruption must surface as a framing error and an explicitly partial
// result — never as silently wrong rows. Clearing the faults restores exact
// results (the poisoned connections were discarded).
func TestSocketChaosCorruptFrameExplicitPartialNeverWrong(t *testing.T) {
	e := newSocketEnv(t, chaosBrokerConfig())
	// Fresh-connection offsets are only guaranteed before any pooled traffic,
	// so corrupt both proxies before the first query: byte 2 (1-based) of
	// each connection's response stream is the version byte of the first
	// frame header, and flipping it fails parseHeader deterministically.
	for _, p := range e.proxies {
		p.SetFault(chaos.ProxyFault{CorruptResponseByte: 2})
	}
	res := e.query(t)
	if !res.Partial {
		t.Fatal("expected explicitly partial result under total corruption")
	}
	if res.ServersResponded >= res.ServersQueried {
		t.Fatalf("queried/responded = %d/%d, want responded < queried",
			res.ServersQueried, res.ServersResponded)
	}
	if len(res.Exceptions) == 0 {
		t.Fatal("expected client-visible exceptions for corrupted frames")
	}
	if got := e.met.Value("pinot_broker_partial_results_total", "events"); got == 0 {
		t.Fatal(`pinot_broker_partial_results_total{table="events"} = 0 after corruption`)
	}
	faulted := false
	for _, p := range e.proxies {
		if p.Faulted() > 0 {
			faulted = true
		}
	}
	if !faulted {
		t.Fatal("no proxy recorded a corruption fault")
	}

	// Clean connections, exact results.
	for _, p := range e.proxies {
		p.Clear()
	}
	assertFullCount(t, e.query(t))
}

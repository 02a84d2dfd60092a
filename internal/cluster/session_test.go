package cluster

import (
	"context"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"pinot/internal/broker"
	"pinot/internal/chaos"
	"pinot/internal/helix"
	"pinot/internal/metrics"
	"pinot/internal/server"
	"pinot/internal/transport"
	"pinot/internal/zkmeta"
)

// metaLink is the metadata connection of one process that reaches the
// cluster's store over a zkmeta.TCPServer, as every role but the
// controller's does in cmd/pinot. It keeps each session it opens so a test
// can cut them all.
type metaLink struct {
	*zkmeta.Remote
	mu       sync.Mutex
	sessions []zkmeta.Client
}

func (l *metaLink) NewClient() zkmeta.Client {
	s := l.Remote.NewClient()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sessions = append(l.sessions, s)
	return s
}

// cut expires every session of the process, as a dropped connection does,
// and returns how many it had opened.
func (l *metaLink) cut() int {
	l.mu.Lock()
	sessions := slices.Clone(l.sessions)
	l.mu.Unlock()
	for _, s := range sessions {
		s.Expire()
	}
	return len(sessions)
}

func (l *metaLink) opened() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sessions)
}

// serveMeta serves the cluster's store on lis until the test ends.
func serveMeta(t *testing.T, c *Cluster, lis net.Listener) {
	srv := zkmeta.NewTCPServer(c.Store)
	go srv.Serve(lis)
	t.Cleanup(srv.Close)
}

func newMetaLink(t *testing.T, c *Cluster) *metaLink {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveMeta(t, c, lis)
	return &metaLink{Remote: zkmeta.NewRemote(lis.Addr().String())}
}

// startServerOver runs the server "server-tcp" as a server process does:
// metadata over link, its data plane on a loopback port it advertises.
func startServerOver(t *testing.T, c *Cluster, link *metaLink) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Cluster: c.Name, Instance: "server-tcp", AdvertiseAddr: lis.Addr().String(), Metrics: metrics.NewRegistry()},
		link, c.Objects, c.Streams)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	dp := transport.NewTCPQueryServer(srv)
	go dp.Serve(lis)
	t.Cleanup(func() {
		dp.Close()
		srv.Stop()
	})
}

// startBrokerOver runs a broker as a broker process does: metadata and the
// resolver's instance configs over link. Its scatter runs through a chaos
// registry, fault-free unless a test sets one.
func startBrokerOver(t *testing.T, c *Cluster, link *metaLink) (*broker.Broker, *chaos.Registry) {
	pool := transport.NewPool()
	t.Cleanup(pool.Close)
	resolverSess := zkmeta.Keep(link, func(zkmeta.Client) error { return nil })
	t.Cleanup(resolverSess.Close)
	calls := chaos.NewRegistry(transport.NewTCPRegistry(helix.NewAddrResolver(resolverSess, c.Name, 2*time.Second), pool), 1)
	cfg := chaosBrokerConfig()
	cfg.Cluster, cfg.Instance, cfg.Metrics = c.Name, "broker-tcp", metrics.NewRegistry()
	br := broker.New(cfg, link, calls)
	if err := br.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(br.Stop)
	return br, calls
}

func isLive(c *Cluster, instance string) bool {
	live, _ := helix.NewAdmin(c.adminSess, c.Name).LiveInstances()
	return slices.Contains(live, instance)
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// servedByServerTCP uploads the four segments of loadOffline with two
// replicas, fails every call to server1, and requires the full answer from
// server-tcp through calls, the scatter registry of the querying broker.
func servedByServerTCP(t *testing.T, c *Cluster, calls *chaos.Registry, execute func() (*broker.Response, error)) {
	t.Helper()
	loadOffline(t, c, 2)
	calls.SetFault("server1", chaos.Fault{FailAll: true})
	calls.SetFault("server-tcp", chaos.Fault{})
	var res *broker.Response
	waitUntil(t, "a complete answer", func() bool {
		r, err := execute() // a session or a resolver may still be reopening
		res = r
		return err == nil && !r.Partial
	})
	assertFullCount(t, res)
	if calls.Calls("server-tcp") == 0 {
		t.Fatal("server-tcp served nothing")
	}
}

// TestServerRejoinsAfterItsMetadataSessionExpires: a server whose metadata
// connection drops re-creates its live-instance node over a new session,
// and loads and serves a segment assigned after the heal. A server that kept
// its dead session never rejoined, and its participant spun on a closed
// watch.
func TestServerRejoinsAfterItsMetadataSessionExpires(t *testing.T) {
	c, err := NewLocal(Options{BrokerTemplate: chaosBrokerConfig()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	link := newMetaLink(t, c)
	startServerOver(t, c, link)
	waitUntil(t, "server-tcp to join", func() bool { return isLive(c, "server-tcp") })

	opened := link.cut()
	waitUntil(t, "server-tcp's live-instance node on a new session", func() bool {
		return link.opened() > opened && isLive(c, "server-tcp")
	})
	servedByServerTCP(t, c, c.Chaos, func() (*broker.Response, error) {
		return c.Execute(context.Background(), "SELECT count(*), sum(clicks) FROM events")
	})
}

// TestBrokerRoutesAfterItsMetadataSessionExpires: a broker whose metadata
// connection drops re-reads the view over a new session, so it routes a
// segment uploaded after the heal. A broker that kept its dead session lost
// its watches and routed on its last snapshot forever.
func TestBrokerRoutesAfterItsMetadataSessionExpires(t *testing.T) {
	c, err := NewLocal(Options{Servers: 2, BrokerTemplate: chaosBrokerConfig()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	loadOffline(t, c, 2)
	link := newMetaLink(t, c)
	br, _ := startBrokerOver(t, c, link)
	count := func() int64 {
		res, err := br.Execute(context.Background(), "SELECT count(*) FROM events", "")
		if err != nil || res.Partial {
			return -1 // no live session yet, or a server not re-resolved yet
		}
		return res.Rows[0][0].(int64)
	}
	if got := count(); got != 400 {
		t.Fatalf("count before the cut = %d, want 400", got)
	}

	link.cut()
	if err := c.UploadSegment("events_OFFLINE", buildBlob(t, "events_4", 400, 100, 100)); err != nil {
		t.Fatal(err)
	}
	waitForReplicas(t, c, "events_OFFLINE", 5, 2)
	waitUntil(t, "broker-tcp to route the segment uploaded after the heal", func() bool { return count() == 500 })
}

// TestRolesJoinOnceTheMetadataEndpointComesUp: a server and a broker started
// while the metadata endpoint is down join once it listens. A failed first
// dial used to fail Start, and a failed reconnect stranded a role for good.
func TestRolesJoinOnceTheMetadataEndpointComesUp(t *testing.T) {
	c, err := NewLocal(Options{BrokerTemplate: chaosBrokerConfig()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	link := &metaLink{Remote: zkmeta.NewRemote(addr)}
	startServerOver(t, c, link)
	br, calls := startBrokerOver(t, c, link)
	if _, err := br.Execute(context.Background(), "SELECT count(*) FROM events", ""); err == nil {
		t.Fatal("a broker with no metadata session answered")
	}

	if lis, err = net.Listen("tcp", addr); err != nil {
		t.Fatal(err)
	}
	serveMeta(t, c, lis)
	waitUntil(t, "server-tcp to join", func() bool { return isLive(c, "server-tcp") })
	servedByServerTCP(t, c, calls, func() (*broker.Response, error) {
		return br.Execute(context.Background(), "SELECT count(*), sum(clicks) FROM events", "")
	})
}

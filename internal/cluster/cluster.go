// Package cluster assembles a complete in-process Pinot deployment:
// metadata store, event streams, object store, a set of controllers (one
// elected leader), servers, brokers and minions, wired over direct
// in-memory transport. It is the substrate for the examples, the
// integration tests and the benchmark harness; the cmd/pinot binary exposes
// the same cluster over HTTP.
package cluster

import (
	"context"
	"fmt"
	"net"
	"time"

	"pinot/internal/broker"
	"pinot/internal/chaos"
	"pinot/internal/controller"
	"pinot/internal/helix"
	"pinot/internal/metrics"
	"pinot/internal/minion"
	"pinot/internal/objstore"
	"pinot/internal/server"
	"pinot/internal/stream"
	"pinot/internal/table"
	"pinot/internal/transport"
	"pinot/internal/zkmeta"
)

// Options sizes and tunes a local cluster.
type Options struct {
	Name        string
	Controllers int
	Servers     int
	Brokers     int
	Minions     int
	// ServerTemplate seeds each server's config (instance/cluster fields
	// are overwritten).
	ServerTemplate server.Config
	// BrokerTemplate seeds each broker's config.
	BrokerTemplate broker.Config
	// Transport selects the broker→server data plane: "" or "mem" for
	// direct in-memory calls (the default), "tcp" for the framed TCP
	// protocol over loopback listeners. Either way the chaos registry
	// wraps the base transport.
	Transport string
	// Metrics is the registry every component of the cluster records into.
	// Nil means a fresh registry per cluster, so concurrent test clusters
	// in one process never share counters.
	Metrics *metrics.Registry
	// controllerTemplate seeds each controller's config. In-package tests
	// set it to shorten the retention sweep.
	controllerTemplate controller.Config
}

func (o *Options) withDefaults() {
	if o.Name == "" {
		o.Name = "pinot"
	}
	if o.Controllers <= 0 {
		o.Controllers = 1
	}
	if o.Servers <= 0 {
		o.Servers = 1
	}
	if o.Brokers <= 0 {
		o.Brokers = 1
	}
}

// Cluster is a running local deployment.
type Cluster struct {
	Name        string
	Store       *zkmeta.Store
	Objects     objstore.Store
	Streams     *stream.Cluster
	Controllers []*controller.Controller
	Servers     []*server.Server
	Brokers     []*broker.Broker
	Minions     []*minion.Minion
	// Chaos injects deterministic faults into broker→server calls.
	Chaos *chaos.Registry
	// Metrics is the cluster-wide registry all components record into.
	Metrics *metrics.Registry

	adminSess *zkmeta.Session

	tcpServers []*transport.TCPQueryServer
	tcpAddrs   map[string]string
	tcpPool    *transport.Pool
}

// NewLocal builds and starts a cluster.
func NewLocal(opts Options) (*Cluster, error) {
	opts.withDefaults()
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c := &Cluster{
		Name:    opts.Name,
		Store:   zkmeta.NewStore(),
		Objects: objstore.NewMem(),
		Streams: stream.NewCluster(),
		Metrics: reg,
	}

	for i := 0; i < opts.Controllers; i++ {
		cfg := opts.controllerTemplate
		cfg.Cluster = opts.Name
		cfg.Instance = fmt.Sprintf("controller%d", i+1)
		cfg.Metrics = reg
		ctrl := controller.New(cfg, c.Store, c.Objects, c.Streams)
		if err := ctrl.Start(); err != nil {
			c.Shutdown()
			return nil, err
		}
		c.Controllers = append(c.Controllers, ctrl)
	}
	// Wait for a leader before admitting participants.
	if _, err := c.WaitForLeader(5 * time.Second); err != nil {
		c.Shutdown()
		return nil, err
	}

	controllerClients := func() []transport.ControllerClient {
		out := make([]transport.ControllerClient, len(c.Controllers))
		for i, ctrl := range c.Controllers {
			out[i] = ctrl
		}
		return out
	}
	for i := 0; i < opts.Servers; i++ {
		cfg := opts.ServerTemplate
		cfg.Cluster = opts.Name
		cfg.Instance = fmt.Sprintf("server%d", i+1)
		cfg.Metrics = reg
		srv := server.New(cfg, c.Store, c.Objects, c.Streams, controllerClients)
		if err := srv.Start(); err != nil {
			c.Shutdown()
			return nil, err
		}
		c.Servers = append(c.Servers, srv)
	}

	base := transport.RegistryFunc(func(instance string) (transport.ServerClient, bool) {
		for _, s := range c.Servers {
			if s.Instance() == instance {
				return s, true
			}
		}
		return nil, false
	})
	if opts.Transport == "tcp" {
		tcpReg, err := c.StartTCPTransport()
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		base = transport.RegistryFunc(tcpReg.ServerClient)
	}
	// All broker traffic flows through the chaos registry; with no faults
	// configured it is a transparent passthrough. A fixed seed keeps fault
	// injection deterministic.
	c.Chaos = chaos.NewRegistry(base, 1)
	registry := transport.Registry(c.Chaos)
	for i := 0; i < opts.Brokers; i++ {
		cfg := opts.BrokerTemplate
		cfg.Cluster = opts.Name
		cfg.Instance = fmt.Sprintf("broker%d", i+1)
		cfg.Metrics = reg
		br := broker.New(cfg, c.Store, registry)
		if err := br.Start(); err != nil {
			c.Shutdown()
			return nil, err
		}
		c.Brokers = append(c.Brokers, br)
	}

	minionControllers := func() []minion.ControllerAPI {
		out := make([]minion.ControllerAPI, len(c.Controllers))
		for i, ctrl := range c.Controllers {
			out[i] = ctrl
		}
		return out
	}
	for i := 0; i < opts.Minions; i++ {
		mn := minion.New(minion.Config{Instance: fmt.Sprintf("minion%d", i+1), Metrics: reg}, minionControllers)
		mn.Start()
		c.Minions = append(c.Minions, mn)
	}

	c.adminSess = c.Store.NewSession()
	return c, nil
}

// StartTCPTransport starts a framed-TCP listener for every server on a
// loopback port and returns a registry that dials them through a shared
// connection pool. Idempotent: a second call returns a registry over the
// same listeners. NewLocal calls it when Options.Transport is "tcp";
// tests that want both transports side by side call it directly.
func (c *Cluster) StartTCPTransport() (transport.Registry, error) {
	if c.tcpAddrs == nil {
		c.tcpAddrs = map[string]string{}
		c.tcpPool = transport.NewPool()
		for _, s := range c.Servers {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			ts := transport.NewTCPQueryServer(s)
			go ts.Serve(lis)
			c.tcpServers = append(c.tcpServers, ts)
			c.tcpAddrs[s.Instance()] = lis.Addr().String()
		}
	}
	return transport.NewTCPRegistry(c.TCPAddr, c.tcpPool), nil
}

// TCPAddr resolves a server instance to its loopback data-plane address
// (after StartTCPTransport).
func (c *Cluster) TCPAddr(instance string) (string, bool) {
	addr, ok := c.tcpAddrs[instance]
	return addr, ok
}

// Shutdown stops every component.
func (c *Cluster) Shutdown() {
	for _, m := range c.Minions {
		m.Stop()
	}
	for _, b := range c.Brokers {
		b.Stop()
	}
	for _, s := range c.Servers {
		s.Stop()
	}
	for _, ctrl := range c.Controllers {
		ctrl.Stop()
	}
	for _, ts := range c.tcpServers {
		ts.Close()
	}
	if c.tcpPool != nil {
		c.tcpPool.Close()
	}
	if c.adminSess != nil {
		c.adminSess.Close()
	}
}

// Leader returns the current lead controller.
func (c *Cluster) Leader() (*controller.Controller, bool) {
	for _, ctrl := range c.Controllers {
		if ctrl.IsLeader() {
			return ctrl, true
		}
	}
	return nil, false
}

// WaitForLeader blocks until a controller wins the election.
func (c *Cluster) WaitForLeader(timeout time.Duration) (*controller.Controller, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if ctrl, ok := c.Leader(); ok {
			return ctrl, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil, fmt.Errorf("cluster: no controller became leader within %v", timeout)
}

// Broker returns the first broker, the default query entry point.
func (c *Cluster) Broker() *broker.Broker { return c.Brokers[0] }

// Execute runs PQL through the first broker.
func (c *Cluster) Execute(ctx context.Context, pql string) (*broker.Response, error) {
	return c.Broker().Execute(ctx, pql, "")
}

// AddTable admits a table through the lead controller.
func (c *Cluster) AddTable(cfg *table.Config) error {
	ctrl, err := c.WaitForLeader(5 * time.Second)
	if err != nil {
		return err
	}
	return ctrl.AddTable(cfg)
}

// UploadSegment pushes a segment blob through the lead controller.
func (c *Cluster) UploadSegment(resource string, blob []byte) error {
	ctrl, err := c.WaitForLeader(5 * time.Second)
	if err != nil {
		return err
	}
	return ctrl.UploadSegment(resource, blob)
}

// WaitForSegments blocks until `count` segments of a resource are in the
// given state on at least one replica each.
func (c *Cluster) WaitForSegments(resource, state string, count int, timeout time.Duration) error {
	admin := helix.NewAdmin(c.adminSess, c.Name)
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ev, err := admin.ExternalViewOf(resource)
		if err == nil {
			n := 0
			for seg := range ev.Partitions {
				if len(ev.InstancesFor(seg, state)) > 0 {
					n++
				}
			}
			if n >= count {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("cluster: %s did not reach %d %s segments within %v", resource, count, state, timeout)
}

// WaitForOnline waits for count segments of a resource to be ONLINE.
func (c *Cluster) WaitForOnline(resource string, count int, timeout time.Duration) error {
	return c.WaitForSegments(resource, helix.StateOnline, count, timeout)
}

// WaitForConsuming waits for count segments to be CONSUMING.
func (c *Cluster) WaitForConsuming(resource string, count int, timeout time.Duration) error {
	return c.WaitForSegments(resource, helix.StateConsuming, count, timeout)
}

// ExternalView reads a resource's external view.
func (c *Cluster) ExternalView(resource string) (*helix.ExternalView, error) {
	return helix.NewAdmin(c.adminSess, c.Name).ExternalViewOf(resource)
}

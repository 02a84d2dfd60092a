// Package cluster assembles a complete in-process Pinot deployment:
// metadata store, event streams, object store, a set of controllers (one
// elected leader), servers, brokers and minions. Controllers, servers and
// brokers are wired as the standalone processes of cmd/pinot are: each
// controller and server serves the framed TCP protocol on a loopback port it
// advertises in its instance config, brokers scatter to the servers'
// addresses, and servers commit segments to the lead controller's. It is the
// substrate for the examples, the integration tests and the benchmark
// harness; the cmd/pinot binary exposes the same cluster over HTTP.
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
	// ServerTemplate seeds each server's config (instance, cluster and
	// advertised-address fields are overwritten).
	ServerTemplate server.Config
	// BrokerTemplate seeds each broker's config.
	BrokerTemplate broker.Config
	// Transport selects nothing (every cluster scatters over TCP) and only
	// "" and "tcp" are accepted. bench/ still sets it; the next change to
	// bench/ deletes it (ROADMAP item 1, second step).
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

	dataPlanes   []*transport.TCPQueryServer // the controllers' and servers'
	pool         *transport.Pool
	resolverSess *zkmeta.Kept       // the brokers' resolver reads over it
	scatter      transport.Registry // what Chaos wraps
}

// NewLocal builds and starts a cluster.
func NewLocal(opts Options) (*Cluster, error) {
	opts.withDefaults()
	if opts.Transport != "" && opts.Transport != "tcp" {
		return nil, fmt.Errorf("cluster: unknown transport %q (only the framed TCP data plane exists)", opts.Transport)
	}
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
		// Each controller answers the completion frames on a loopback
		// port it advertises, as a controller process does.
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		cfg := opts.controllerTemplate
		cfg.Cluster = opts.Name
		cfg.Instance = fmt.Sprintf("controller%d", i+1)
		cfg.AdvertiseAddr = lis.Addr().String()
		cfg.Metrics = reg
		ctrl := controller.New(cfg, c.Store, c.Objects, c.Streams)
		cp := transport.NewTCPQueryServer(nil)
		cp.Controller = ctrl
		go cp.Serve(lis)
		c.dataPlanes = append(c.dataPlanes, cp)
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

	for i := 0; i < opts.Servers; i++ {
		// Each server is wired as a standalone server process is: it
		// listens on a loopback port, advertises that address in its
		// instance config and serves the framed query protocol there.
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		cfg := opts.ServerTemplate
		cfg.Cluster = opts.Name
		cfg.Instance = fmt.Sprintf("server%d", i+1)
		cfg.AdvertiseAddr = lis.Addr().String()
		cfg.Metrics = reg
		srv := server.New(cfg, c.Store, c.Objects, c.Streams)
		if err := srv.Start(); err != nil {
			lis.Close()
			c.Shutdown()
			return nil, err
		}
		c.Servers = append(c.Servers, srv)
		dp := transport.NewTCPQueryServer(srv)
		go dp.Serve(lis)
		c.dataPlanes = append(c.dataPlanes, dp)
	}

	// Brokers find servers as a broker process does, by the addresses their
	// instance configs advertise, through the chaos registry: a passthrough
	// without faults, deterministic under its fixed seed.
	c.pool = transport.NewPool()
	c.resolverSess = zkmeta.Keep(c.Store, func(zkmeta.Client) error { return nil })
	c.scatter = transport.NewTCPRegistry(helix.NewAddrResolver(c.resolverSess, opts.Name, 2*time.Second), c.pool)
	c.Chaos = chaos.NewRegistry(c.scatter, 1)
	for i := 0; i < opts.Brokers; i++ {
		cfg := opts.BrokerTemplate
		cfg.Cluster = opts.Name
		cfg.Instance = fmt.Sprintf("broker%d", i+1)
		cfg.Metrics = reg
		br := broker.New(cfg, c.Store, c.Chaos)
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

// StartTCPTransport starts nothing: it returns the registry Chaos wraps.
// bench/ still calls it; the next change to bench/ deletes it.
func (c *Cluster) StartTCPTransport() (transport.Registry, error) { return c.scatter, nil }

// Shutdown stops every component.
func (c *Cluster) Shutdown() {
	for _, m := range c.Minions {
		m.Stop()
	}
	for _, b := range c.Brokers {
		b.Stop()
	}
	if c.pool != nil {
		c.pool.Close()
		c.resolverSess.Close()
	}
	for _, dp := range c.dataPlanes {
		dp.Close()
	}
	for _, s := range c.Servers {
		s.Stop()
	}
	for _, ctrl := range c.Controllers {
		ctrl.Stop()
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

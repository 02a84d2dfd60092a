package helix

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pinot/internal/zkmeta"
)

func newCluster(t *testing.T) (*zkmeta.Store, *Admin) {
	t.Helper()
	store := zkmeta.NewStore()
	admin := NewAdmin(store.NewSession(), "test")
	if err := admin.CreateCluster(); err != nil {
		t.Fatal(err)
	}
	if err := admin.CreateCluster(); err != nil {
		t.Fatal("CreateCluster not idempotent:", err)
	}
	return store, admin
}

// testParticipant runs a Participant over a kept session of its own, as a
// server does.
type testParticipant struct {
	*Participant
	store zkmeta.Endpoint
	sess  *zkmeta.Kept
}

func newParticipant(store zkmeta.Endpoint, instance string, handler TransitionHandler) *testParticipant {
	return &testParticipant{Participant: NewParticipant("test", instance, handler), store: store}
}

func (p *testParticipant) Start() error {
	p.sess = zkmeta.Keep(p.store, p.Join)
	p.Participant.Start(p.sess)
	return nil
}

// Stop closes the session, which ends the loop, as a server does; a crash is
// the same from the cluster's side.
func (p *testParticipant) Stop() { p.sess.Close() }

// testController runs a Controller over a kept session of its own, as the
// controller role does.
type testController struct {
	*Controller
	store zkmeta.Endpoint
	sess  *zkmeta.Kept
}

func newController(store zkmeta.Endpoint, instance string) *testController {
	return &testController{Controller: NewController("test", instance), store: store}
}

func (c *testController) Start() error {
	c.sess = zkmeta.Keep(c.store, func(s zkmeta.Client) error { c.Join(s); return nil })
	c.Controller.Start(c.sess)
	return nil
}

func (c *testController) Stop() { c.sess.Close() }

// recordingHandler tracks transitions applied to a participant.
type recordingHandler struct {
	mu          sync.Mutex
	transitions []string
	fail        map[string]bool // "partition from->to" to fail
}

func (h *recordingHandler) handle(resource, partition, from, to string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	key := fmt.Sprintf("%s %s->%s", partition, from, to)
	h.transitions = append(h.transitions, key)
	if h.fail[key] {
		return fmt.Errorf("injected failure for %s", key)
	}
	return nil
}

func (h *recordingHandler) saw(key string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, t := range h.transitions {
		if t == key {
			return true
		}
	}
	return false
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestNextHop(t *testing.T) {
	cases := []struct{ cur, desired, want string }{
		{StateOffline, StateOnline, StateOnline},
		{StateOffline, StateConsuming, StateConsuming},
		{StateConsuming, StateOnline, StateOnline},
		{StateOnline, StateOffline, StateOffline},
		{StateOnline, StateDropped, StateOffline}, // multi-hop
		{StateConsuming, StateDropped, StateOffline},
		{StateOffline, StateDropped, StateDropped},
		{StateOnline, StateOnline, ""},
		{StateError, StateOnline, StateOffline},
	}
	for _, c := range cases {
		if got := NextHop(c.cur, c.desired); got != c.want {
			t.Errorf("NextHop(%s, %s) = %q, want %q", c.cur, c.desired, got, c.want)
		}
	}
}

func TestSegmentLoadFlow(t *testing.T) {
	store, admin := newCluster(t)
	h := &recordingHandler{}
	p := newParticipant(store, "server1", h.handle)
	if err := admin.RegisterInstance(InstanceConfig{Instance: "server1", Tags: []string{"server"}}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	ctrl := newController(store, "controller1")
	if err := ctrl.Start(); err != nil {
		t.Fatal(err)
	}
	defer ctrl.Stop()
	waitFor(t, "leadership", ctrl.IsLeader)

	// Paper Figure 4: set ideal state ONLINE, server processes
	// OFFLINE->ONLINE, external view converges.
	is := &IdealState{Resource: "events", NumReplicas: 1, Partitions: map[string]map[string]string{
		"seg0": {"server1": StateOnline},
	}}
	if err := admin.SetIdealState(is); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "segment online", func() bool {
		ev, err := admin.ExternalViewOf("events")
		return err == nil && ev.Partitions["seg0"]["server1"] == StateOnline
	})
	if !h.saw("seg0 OFFLINE->ONLINE") {
		t.Fatalf("transitions = %v", h.transitions)
	}
	if p.CurrentState("events", "seg0") != StateOnline {
		t.Fatal("participant state wrong")
	}
}

func TestConsumingFlow(t *testing.T) {
	store, admin := newCluster(t)
	h := &recordingHandler{}
	p := newParticipant(store, "server1", h.handle)
	_ = admin.RegisterInstance(InstanceConfig{Instance: "server1"})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	ctrl := newController(store, "c1")
	_ = ctrl.Start()
	defer ctrl.Stop()

	_ = admin.SetIdealState(&IdealState{Resource: "rt", NumReplicas: 1, Partitions: map[string]map[string]string{
		"rt__0__0": {"server1": StateConsuming},
	}})
	waitFor(t, "consuming", func() bool {
		ev, _ := admin.ExternalViewOf("rt")
		return ev.Partitions["rt__0__0"]["server1"] == StateConsuming
	})
	// Completion: desired state moves to ONLINE.
	_ = admin.UpdateIdealState("rt", func(is *IdealState) bool {
		is.Partitions["rt__0__0"]["server1"] = StateOnline
		return true
	})
	waitFor(t, "online after consuming", func() bool {
		ev, _ := admin.ExternalViewOf("rt")
		return ev.Partitions["rt__0__0"]["server1"] == StateOnline
	})
	if !h.saw("rt__0__0 CONSUMING->ONLINE") {
		t.Fatalf("transitions = %v", h.transitions)
	}
}

func TestMultiHopDrop(t *testing.T) {
	store, admin := newCluster(t)
	h := &recordingHandler{}
	p := newParticipant(store, "server1", h.handle)
	_ = admin.RegisterInstance(InstanceConfig{Instance: "server1"})
	_ = p.Start()
	defer p.Stop()
	ctrl := newController(store, "c1")
	_ = ctrl.Start()
	defer ctrl.Stop()

	_ = admin.SetIdealState(&IdealState{Resource: "r", Partitions: map[string]map[string]string{
		"s0": {"server1": StateOnline},
	}})
	waitFor(t, "online", func() bool {
		ev, _ := admin.ExternalViewOf("r")
		return ev.Partitions["s0"]["server1"] == StateOnline
	})
	// Retention GC: ONLINE -> DROPPED must route through OFFLINE.
	_ = admin.UpdateIdealState("r", func(is *IdealState) bool {
		is.Partitions["s0"]["server1"] = StateDropped
		return true
	})
	waitFor(t, "dropped", func() bool {
		return p.CurrentState("r", "s0") == ""
	})
	if !h.saw("s0 ONLINE->OFFLINE") || !h.saw("s0 OFFLINE->DROPPED") {
		t.Fatalf("transitions = %v", h.transitions)
	}
	// Dropped partitions leave the external view.
	waitFor(t, "view cleanup", func() bool {
		ev, _ := admin.ExternalViewOf("r")
		return len(ev.Partitions["s0"]) == 0
	})
}

func TestReplicaDistribution(t *testing.T) {
	store, admin := newCluster(t)
	handlers := map[string]*recordingHandler{}
	var parts []*testParticipant
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("server%d", i)
		h := &recordingHandler{}
		handlers[name] = h
		p := newParticipant(store, name, h.handle)
		_ = admin.RegisterInstance(InstanceConfig{Instance: name, Tags: []string{"server"}})
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		defer p.Stop()
		parts = append(parts, p)
	}
	ctrl := newController(store, "c1")
	_ = ctrl.Start()
	defer ctrl.Stop()

	_ = admin.SetIdealState(&IdealState{Resource: "r", NumReplicas: 2, Partitions: map[string]map[string]string{
		"s0": {"server1": StateOnline, "server2": StateOnline},
		"s1": {"server2": StateOnline, "server3": StateOnline},
	}})
	waitFor(t, "all replicas online", func() bool {
		ev, _ := admin.ExternalViewOf("r")
		return len(ev.InstancesFor("s0", StateOnline)) == 2 && len(ev.InstancesFor("s1", StateOnline)) == 2
	})
	live, err := admin.LiveInstances()
	if err != nil || len(live) != 3 {
		t.Fatalf("live = %v %v", live, err)
	}
}

func TestParticipantCrashRemovesFromView(t *testing.T) {
	store, admin := newCluster(t)
	h1, h2 := &recordingHandler{}, &recordingHandler{}
	p1 := newParticipant(store, "server1", h1.handle)
	p2 := newParticipant(store, "server2", h2.handle)
	_ = admin.RegisterInstance(InstanceConfig{Instance: "server1"})
	_ = admin.RegisterInstance(InstanceConfig{Instance: "server2"})
	_ = p1.Start()
	_ = p2.Start()
	defer p2.Stop()
	ctrl := newController(store, "c1")
	_ = ctrl.Start()
	defer ctrl.Stop()

	_ = admin.SetIdealState(&IdealState{Resource: "r", Partitions: map[string]map[string]string{
		"s0": {"server1": StateOnline, "server2": StateOnline},
	}})
	waitFor(t, "both online", func() bool {
		ev, _ := admin.ExternalViewOf("r")
		return len(ev.InstancesFor("s0", StateOnline)) == 2
	})
	p1.Stop() // crash: the session ends and is never reopened
	waitFor(t, "crashed instance removed from view", func() bool {
		ev, _ := admin.ExternalViewOf("r")
		insts := ev.InstancesFor("s0", StateOnline)
		return len(insts) == 1 && insts[0] == "server2"
	})
}

func TestFailedTransitionBecomesError(t *testing.T) {
	store, admin := newCluster(t)
	h := &recordingHandler{fail: map[string]bool{"s0 OFFLINE->ONLINE": true}}
	p := newParticipant(store, "server1", h.handle)
	_ = admin.RegisterInstance(InstanceConfig{Instance: "server1"})
	_ = p.Start()
	defer p.Stop()
	ctrl := newController(store, "c1")
	_ = ctrl.Start()
	defer ctrl.Stop()

	_ = admin.SetIdealState(&IdealState{Resource: "r", Partitions: map[string]map[string]string{
		"s0": {"server1": StateOnline},
	}})
	waitFor(t, "error state", func() bool {
		return p.CurrentState("r", "s0") == StateError
	})
	// The controller must not retry an ERROR replica in a tight loop;
	// give it a few passes and check the handler was invoked once.
	time.Sleep(100 * time.Millisecond)
	h.mu.Lock()
	n := len(h.transitions)
	h.mu.Unlock()
	if n != 1 {
		t.Fatalf("transition attempted %d times, want 1", n)
	}
}

// leadsSteadily reports whether c leads within 2s and still leads three
// passes later.
func leadsSteadily(c *testController) bool {
	for deadline := time.Now().Add(2 * time.Second); !c.IsLeader(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	time.Sleep(60 * time.Millisecond)
	return c.IsLeader()
}

// TestLoneControllerLeadsAfterEachExpiry: a lone controller whose session
// expires leads again over the session that replaces it, twenty times in a
// row. When it handled its own seat's deletion after re-winning the seat,
// it read its own node as someone else's and stepped down, and nobody led.
func TestLoneControllerLeadsAfterEachExpiry(t *testing.T) {
	store, _ := newCluster(t)
	c := newController(store, "c1")
	_ = c.Start()
	defer c.Stop()
	for i := 0; i < 20; i++ {
		if !leadsSteadily(c) {
			t.Fatalf("expiry %d: no leader within 2s", i)
		}
		c.Kick() // a busy loop finds the seat's deletion and the expiry both pending
		c.sess.Expire()
	}
}

// seatGate holds its sessions' creates of the controller seat until open
// reports true, so another controller wins any race for it. A create checks
// open and lands under mu, and a test that holds mu around an expiry keeps
// a create that passed the gate before the expiry from landing after it.
type seatGate struct {
	*zkmeta.Store
	open func() bool
	mu   sync.Mutex
}

func (e *seatGate) NewClient() zkmeta.Client { return gatedClient{e.Store.NewClient(), e} }

type gatedClient struct {
	zkmeta.Client
	gate *seatGate
}

func (c gatedClient) CreateEphemeral(path string, data []byte) error {
	if path != controllerPath("test") {
		return c.Client.CreateEphemeral(path, data)
	}
	for {
		c.gate.mu.Lock()
		if c.gate.open() {
			defer c.gate.mu.Unlock()
			return c.Client.CreateEphemeral(path, data)
		}
		c.gate.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
}

// TestOldLeaderReWinsAfterExpiry: an expired leader that re-takes the seat
// before the standby keeps leading, and the standby stays idle.
func TestOldLeaderReWinsAfterExpiry(t *testing.T) {
	store, _ := newCluster(t)
	c1 := newController(store, "c1")
	_ = c1.Start()
	defer c1.Stop()
	waitFor(t, "c1 leader", c1.IsLeader)
	var done atomic.Bool // the gate opens for good when the test ends
	gate := &seatGate{Store: store, open: func() bool { return c1.IsLeader() || done.Load() }}
	c2 := newController(gate, "c2")
	_ = c2.Start()
	defer c2.Stop()
	defer done.Store(true)
	sess := store.NewSession()
	for i := 0; i < 20; i++ {
		c1.Kick()
		gate.mu.Lock()
		c1.sess.Expire()
		gate.mu.Unlock()
		if !leadsSteadily(c1) || c2.IsLeader() {
			t.Fatalf("expiry %d: c1 leads %v, c2 leads %v", i, c1.IsLeader(), c2.IsLeader())
		}
		if leader, _ := Leader(sess, "test"); leader != "c1" {
			t.Fatalf("expiry %d: the seat reads %q", i, leader)
		}
	}
}

func TestControllerFailover(t *testing.T) {
	store, admin := newCluster(t)
	c1 := newController(store, "c1")
	c2 := newController(store, "c2")
	_ = c1.Start()
	waitFor(t, "c1 leader", c1.IsLeader)
	_ = c2.Start()
	if c2.IsLeader() {
		t.Fatal("two leaders")
	}
	sess := store.NewSession()
	if leader, ok := Leader(sess, "test"); !ok || leader != "c1" {
		t.Fatalf("leader = %q %v", leader, ok)
	}
	c1.Stop()
	waitFor(t, "c2 takeover", c2.IsLeader)
	defer c2.Stop()
	if leader, ok := Leader(sess, "test"); !ok || leader != "c2" {
		t.Fatalf("leader after failover = %q %v", leader, ok)
	}
	// The new leader picks up pending work: a participant joining late
	// still converges.
	h := &recordingHandler{}
	p := newParticipant(store, "server1", h.handle)
	_ = admin.RegisterInstance(InstanceConfig{Instance: "server1"})
	_ = p.Start()
	defer p.Stop()
	_ = admin.SetIdealState(&IdealState{Resource: "r", Partitions: map[string]map[string]string{
		"s0": {"server1": StateOnline},
	}})
	waitFor(t, "converged under new leader", func() bool {
		ev, _ := admin.ExternalViewOf("r")
		return ev.Partitions["s0"]["server1"] == StateOnline
	})
}

func TestDropResourceCleansView(t *testing.T) {
	store, admin := newCluster(t)
	h := &recordingHandler{}
	p := newParticipant(store, "server1", h.handle)
	_ = admin.RegisterInstance(InstanceConfig{Instance: "server1"})
	_ = p.Start()
	defer p.Stop()
	ctrl := newController(store, "c1")
	_ = ctrl.Start()
	defer ctrl.Stop()
	_ = admin.SetIdealState(&IdealState{Resource: "gone", Partitions: map[string]map[string]string{
		"s0": {"server1": StateOnline},
	}})
	waitFor(t, "online", func() bool {
		ev, _ := admin.ExternalViewOf("gone")
		return ev.Partitions["s0"]["server1"] == StateOnline
	})
	if err := admin.DropResource("gone"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "view removed", func() bool {
		views, _ := admin.sess.Children("/test/EXTERNALVIEW")
		for _, v := range views {
			if v == "gone" {
				return false
			}
		}
		return true
	})
	resources, _ := admin.Resources()
	if len(resources) != 0 {
		t.Fatalf("resources = %v", resources)
	}
}

func TestUpdateIdealStateCAS(t *testing.T) {
	_, admin := newCluster(t)
	_ = admin.SetIdealState(&IdealState{Resource: "r", Partitions: map[string]map[string]string{}})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := admin.UpdateIdealState("r", func(is *IdealState) bool {
				is.Partitions[fmt.Sprintf("s%d", i)] = map[string]string{"server1": StateOnline}
				return true
			})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	is, err := admin.IdealStateOf("r")
	if err != nil || len(is.Partitions) != 8 {
		t.Fatalf("partitions = %d, %v", len(is.Partitions), err)
	}
	// Aborting update writes nothing.
	_ = admin.UpdateIdealState("r", func(is *IdealState) bool {
		is.Partitions["never"] = map[string]string{}
		return false
	})
	is, _ = admin.IdealStateOf("r")
	if _, ok := is.Partitions["never"]; ok {
		t.Fatal("aborted update was written")
	}
}

func TestInstanceConfigs(t *testing.T) {
	_, admin := newCluster(t)
	_ = admin.RegisterInstance(InstanceConfig{Instance: "s1", Tags: []string{"serverTenant_OFFLINE"}})
	_ = admin.RegisterInstance(InstanceConfig{Instance: "b1", Tags: []string{"broker"}})
	// Re-register updates tags.
	_ = admin.RegisterInstance(InstanceConfig{Instance: "s1", Tags: []string{"serverTenant_OFFLINE", "serverTenant_REALTIME"}})
	configs, err := admin.Instances()
	if err != nil || len(configs) != 2 {
		t.Fatalf("configs = %v %v", configs, err)
	}
	for _, c := range configs {
		if c.Instance == "s1" {
			if !c.HasTag("serverTenant_REALTIME") || c.HasTag("nope") {
				t.Fatalf("tags = %v", c.Tags)
			}
		}
	}
}

// sessionCounter is an endpoint that keeps every session it opened.
type sessionCounter struct {
	*zkmeta.Store
	sessions []*zkmeta.Session
}

func (e *sessionCounter) NewClient() zkmeta.Client {
	s := e.Store.NewSession()
	e.sessions = append(e.sessions, s)
	return s
}

// TestAddrResolver: an instance resolves to the address its config
// advertises, an unknown or address-less one does not, an answer holds for
// the TTL and is read again after it, and a miss after the session expired
// reads over the fresh session its kept session opened.
func TestAddrResolver(t *testing.T) {
	store, admin := newCluster(t)
	for _, cfg := range []InstanceConfig{{Instance: "server1", Addr: "127.0.0.1:7001"}, {Instance: "minion1"}} {
		if err := admin.RegisterInstance(cfg); err != nil {
			t.Fatal(err)
		}
	}
	const ttl = 50 * time.Millisecond
	ep := &sessionCounter{Store: store}
	sess := zkmeta.Keep(ep, func(zkmeta.Client) error { return nil })
	defer sess.Close()
	resolve := NewAddrResolver(sess, "test", ttl)
	check := func(instance, wantAddr string) {
		t.Helper()
		if addr, ok := resolve(instance); addr != wantAddr || ok != (wantAddr != "") {
			t.Fatalf("resolve(%s) = %q, %v; want %q", instance, addr, ok, wantAddr)
		}
	}
	check("server1", "127.0.0.1:7001")
	check("minion1", "")
	check("nosuch", "")

	if err := admin.RegisterInstance(InstanceConfig{Instance: "server1", Addr: "127.0.0.1:7002"}); err != nil {
		t.Fatal(err)
	}
	check("server1", "127.0.0.1:7001") // cached
	time.Sleep(2 * ttl)
	check("server1", "127.0.0.1:7002")

	ep.sessions[0].Expire()
	time.Sleep(2 * ttl)
	check("server1", "127.0.0.1:7002")
	if len(ep.sessions) != 2 {
		t.Fatalf("opened %d sessions, want a second one after expiry", len(ep.sessions))
	}
}

package helix

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"pinot/internal/zkmeta"
)

// Controller is the cluster manager: it watches ideal states, live instances
// and current states, computes the state transitions needed to converge the
// cluster, delivers them as messages, and maintains external views. Several
// controllers may run; a leader election picks one active rebalancer (paper
// 3.2: "we run three controller instances in each datacenter with a single
// master; non-leader controllers are mostly idle"). It runs over its role's
// kept session: the role's onSession calls Join.
type Controller struct {
	sess     *zkmeta.Kept
	cluster  string
	instance string

	leader   atomic.Bool
	kick     kicker
	msgSeq   atomic.Int64
	onLeader func(bool) // optional leadership callback

	mu           sync.Mutex
	stateWatches map[string]bool // instances whose current state the session watches
}

// NewController creates a controller instance.
func NewController(cluster, instance string) *Controller {
	return &Controller{cluster: cluster, instance: instance, kick: make(kicker, 1), stateWatches: map[string]bool{}}
}

// OnLeadershipChange registers a callback fired with true/false as this
// controller gains/loses mastership. Must be called before Start.
func (c *Controller) OnLeadershipChange(fn func(bool)) { c.onLeader = fn }

// IsLeader reports whether this controller currently holds mastership: an
// expired session means not leader from that moment.
func (c *Controller) IsLeader() bool { return c.leader.Load() && c.sess.Live() }

// Join is the controller's part of its role's onSession. The seat died with
// the last session, so it steps down; it re-arms its watches on sess as kicks
// of the loop, whose next pass re-contends.
func (c *Controller) Join(sess zkmeta.Client) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.setLeader(false)
	c.stateWatches = map[string]bool{}
	c.kick.on(sess.Watch(controllerPath(c.cluster)))
	c.kick.on(sess.WatchChildren(idealStatesPath(c.cluster)))
	c.kick.on(sess.WatchChildren(liveInstancesPath(c.cluster)))
	c.kick.on(sess.WatchChildren(currentStatesPath(c.cluster)))
	c.Kick()
}

// kicker wakes a loop; a kick while one is pending is absorbed.
type kicker chan struct{}

func (k kicker) kick() {
	select {
	case k <- struct{}{}:
	default:
	}
}

// on turns a watch's events into kicks until it closes with its session.
func (k kicker) on(events <-chan zkmeta.Event, _ func()) {
	go func() {
		for range events {
			k.kick()
		}
	}()
}

// Start runs the control loop over sess until it is closed: each pass (a
// tick or a kick) re-runs the election and, when leader, rebalances.
func (c *Controller) Start(sess *zkmeta.Kept) {
	c.sess = sess
	sess.Go(func(done <-chan struct{}) {
		ticker := time.NewTicker(20 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-c.kick:
			case <-ticker.C:
			}
			if over := c.elect(); over != nil {
				c.rebalance(over)
			}
		}
	})
}

// Kick requests an immediate rebalance pass.
func (c *Controller) Kick() { c.kick.kick() }

func (c *Controller) setLeader(v bool) {
	if c.leader.Swap(v) != v && c.onLeader != nil {
		c.onLeader(v)
	}
}

// elect is level-triggered: with a live session the controller reads the
// seat, takes it if it is absent, and leads exactly when it holds this
// instance's name. No edge of the seat's watch is trusted on its own. It
// returns the session it leads over, nil if it does not lead: a pass writes
// only over that session, so a pass that outlives it fails its writes.
func (c *Controller) elect() zkmeta.Client {
	sess := c.sess.Client()
	lead := false
	if c.sess.Live() {
		data, _, err := sess.Get(controllerPath(c.cluster))
		if err == zkmeta.ErrNoNode {
			data, err = []byte(c.instance), sess.CreateEphemeral(controllerPath(c.cluster), []byte(c.instance))
		}
		lead = err == nil && string(data) == c.instance
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.setLeader(lead && sess == c.sess.Client()) // a session that joined since voids the read
	if !c.leader.Load() {
		return nil
	}
	return sess
}

// rebalance runs one convergence pass.
func (c *Controller) rebalance(sess zkmeta.Client) {
	resources, err := sess.Children(idealStatesPath(c.cluster))
	if err != nil {
		return
	}
	live, err := sess.Children(liveInstancesPath(c.cluster))
	if err != nil {
		return
	}
	liveSet := make(map[string]bool, len(live))
	for _, l := range live {
		liveSet[l] = true
	}
	current, err := readCurrentStates(sess, c.cluster)
	if err != nil {
		return
	}
	c.ensureStateWatches(sess, current)
	pending := c.pendingMessages(sess)

	admin := NewAdmin(sess, c.cluster)
	for _, res := range resources {
		is, err := admin.IdealStateOf(res)
		if err != nil {
			continue
		}
		for partition, replicas := range is.Partitions {
			for instance, desired := range replicas {
				if !liveSet[instance] {
					continue
				}
				cur, ok := current[instance][res][partition]
				if !ok {
					cur = StateOffline
				}
				if desired == StateDropped && !ok {
					continue // already gone
				}
				if cur == desired || cur == StateError {
					continue
				}
				key := instance + "|" + res + "|" + partition
				if pending[key] {
					continue
				}
				next := NextHop(cur, desired)
				if next == "" {
					continue
				}
				c.sendMessage(sess, instance, Message{
					ID:        fmt.Sprintf("msg-%d", c.msgSeq.Add(1)),
					Resource:  res,
					Partition: partition,
					From:      cur,
					To:        next,
				})
			}
		}
		c.updateExternalView(sess, res, is, current, liveSet)
	}
	c.dropOrphanViews(sess, resources)
}

// pendingMessages returns instance|resource|partition keys with an
// undelivered transition message.
func (c *Controller) pendingMessages(sess zkmeta.Client) map[string]bool {
	out := map[string]bool{}
	instances, err := sess.Children(messagesPath(c.cluster))
	if err != nil {
		return out
	}
	for _, inst := range instances {
		msgs, err := sess.Children(instanceMessagesPath(c.cluster, inst))
		if err != nil {
			continue
		}
		for _, m := range msgs {
			data, _, err := sess.Get(instanceMessagesPath(c.cluster, inst) + "/" + m)
			if err != nil {
				continue
			}
			var msg Message
			if json.Unmarshal(data, &msg) == nil {
				out[inst+"|"+msg.Resource+"|"+msg.Partition] = true
			}
		}
	}
	return out
}

func (c *Controller) sendMessage(sess zkmeta.Client, instance string, msg Message) {
	data, err := json.Marshal(msg)
	if err != nil {
		return
	}
	_ = sess.Create(instanceMessagesPath(c.cluster, instance)+"/"+msg.ID, data)
}

func (c *Controller) updateExternalView(sess zkmeta.Client, res string, is *IdealState, current map[string]map[string]map[string]string, live map[string]bool) {
	ev := &ExternalView{Resource: res, Partitions: map[string]map[string]string{}}
	for instance, byResource := range current {
		if !live[instance] {
			continue
		}
		for partition, state := range byResource[res] {
			if _, inIdeal := is.Partitions[partition]; !inIdeal {
				continue
			}
			if ev.Partitions[partition] == nil {
				ev.Partitions[partition] = map[string]string{}
			}
			ev.Partitions[partition][instance] = state
		}
	}
	prev, err := NewAdmin(sess, c.cluster).ExternalViewOf(res)
	if err == nil && reflect.DeepEqual(prev.Partitions, ev.Partitions) {
		return
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	p := externalViewPath(c.cluster, res)
	if err := sess.Create(p, data); err == zkmeta.ErrNodeExists {
		_, _ = sess.Set(p, data, -1)
	}
}

// dropOrphanViews removes external views whose resource no longer exists.
func (c *Controller) dropOrphanViews(sess zkmeta.Client, resources []string) {
	have := make(map[string]bool, len(resources))
	for _, r := range resources {
		have[r] = true
	}
	views, err := sess.Children(externalViewsPath(c.cluster))
	if err != nil {
		return
	}
	for _, v := range views {
		if !have[v] {
			_ = sess.Delete(externalViewPath(c.cluster, v), -1)
		}
	}
}

// ensureStateWatches registers data watches on each instance's current-state
// node so participant progress triggers rebalances promptly.
func (c *Controller) ensureStateWatches(sess zkmeta.Client, current map[string]map[string]map[string]string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for inst := range current {
		if !c.stateWatches[inst] {
			c.stateWatches[inst] = true
			c.kick.on(sess.Watch(currentStatePath(c.cluster, inst)))
		}
	}
}

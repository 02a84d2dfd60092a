// Package helix is the cluster-management substrate modelled on Apache
// Helix (paper section 3.2): resources (tables) are divided into partitions
// (segments) whose replicas live on participant instances. The desired
// placement is the *ideal state*; participants execute state transitions
// delivered as messages and report *current states*, which the controller
// aggregates into the *external view* that brokers watch to build routing
// tables. All coordination happens through the zkmeta store.
package helix

import (
	"encoding/json"
	"fmt"
	"path"
	"sync"
	"time"

	"pinot/internal/zkmeta"
)

// Segment/partition states of the Pinot state model (paper Figure 3).
const (
	StateOffline   = "OFFLINE"
	StateConsuming = "CONSUMING"
	StateOnline    = "ONLINE"
	StateDropped   = "DROPPED"
	StateError     = "ERROR"
)

// validTransitions lists the direct edges of the state machine.
var validTransitions = map[[2]string]bool{
	{StateOffline, StateOnline}:    true,
	{StateOffline, StateConsuming}: true,
	{StateConsuming, StateOnline}:  true,
	{StateConsuming, StateOffline}: true,
	{StateOnline, StateOffline}:    true,
	{StateOffline, StateDropped}:   true,
	{StateError, StateOffline}:     true,
}

// NextHop returns the next transition target on the path from cur to
// desired, or "" if no move is needed or possible.
func NextHop(cur, desired string) string {
	if cur == desired {
		return ""
	}
	if validTransitions[[2]string{cur, desired}] {
		return desired
	}
	// Route through OFFLINE (e.g. ONLINE→DROPPED, CONSUMING→DROPPED,
	// ERROR→ONLINE).
	if cur != StateOffline && validTransitions[[2]string{cur, StateOffline}] {
		return StateOffline
	}
	return ""
}

// IdealState is the desired placement of one resource: partition → instance
// → desired state.
type IdealState struct {
	Resource    string                       `json:"resource"`
	NumReplicas int                          `json:"numReplicas"`
	Partitions  map[string]map[string]string `json:"partitions"`
}

// Clone deep-copies the ideal state.
func (is *IdealState) Clone() *IdealState {
	out := &IdealState{Resource: is.Resource, NumReplicas: is.NumReplicas, Partitions: map[string]map[string]string{}}
	for p, m := range is.Partitions {
		cp := make(map[string]string, len(m))
		for k, v := range m {
			cp[k] = v
		}
		out.Partitions[p] = cp
	}
	return out
}

// ExternalView is the observed placement of one resource: partition →
// instance → current state, restricted to live instances.
type ExternalView struct {
	Resource   string                       `json:"resource"`
	Partitions map[string]map[string]string `json:"partitions"`
}

// InstancesFor returns the live instances serving a partition in the given
// state.
func (ev *ExternalView) InstancesFor(partition, state string) []string {
	var out []string
	for inst, st := range ev.Partitions[partition] {
		if st == state {
			out = append(out, inst)
		}
	}
	return out
}

// Message is a state-transition request delivered to a participant.
type Message struct {
	ID        string `json:"id"`
	Resource  string `json:"resource"`
	Partition string `json:"partition"`
	From      string `json:"from"`
	To        string `json:"to"`
}

// InstanceConfig describes a registered instance and its tenant tags.
type InstanceConfig struct {
	Instance string   `json:"instance"`
	Tags     []string `json:"tags"`
	// Addr is the instance's data-plane TCP address (host:port), set by
	// every server and controller: brokers resolve scatter targets through
	// it, servers the lead controller.
	Addr string `json:"addr,omitempty"`
}

// HasTag reports whether the instance carries a tag.
func (c InstanceConfig) HasTag(tag string) bool {
	for _, t := range c.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// Path helpers: the layout under /<cluster>/.

func clusterPath(cluster string) string            { return "/" + cluster }
func idealStatesPath(cluster string) string        { return clusterPath(cluster) + "/IDEALSTATES" }
func idealStatePath(cluster, res string) string    { return idealStatesPath(cluster) + "/" + res }
func externalViewsPath(cluster string) string      { return clusterPath(cluster) + "/EXTERNALVIEW" }
func externalViewPath(cluster, res string) string  { return externalViewsPath(cluster) + "/" + res }
func liveInstancesPath(cluster string) string      { return clusterPath(cluster) + "/LIVEINSTANCES" }
func liveInstancePath(cluster, inst string) string { return liveInstancesPath(cluster) + "/" + inst }
func configsPath(cluster string) string            { return clusterPath(cluster) + "/CONFIGS" }
func configPath(cluster, inst string) string       { return configsPath(cluster) + "/" + inst }
func currentStatesPath(cluster string) string      { return clusterPath(cluster) + "/CURRENTSTATES" }
func currentStatePath(cluster, inst string) string { return currentStatesPath(cluster) + "/" + inst }
func messagesPath(cluster string) string           { return clusterPath(cluster) + "/MESSAGES" }
func instanceMessagesPath(cluster, inst string) string {
	return messagesPath(cluster) + "/" + inst
}
func controllerPath(cluster string) string { return clusterPath(cluster) + "/CONTROLLER" }
func propertyStorePath(cluster string) string {
	return clusterPath(cluster) + "/PROPERTYSTORE"
}

// Admin performs cluster administration against the store.
type Admin struct {
	sess    zkmeta.Client
	cluster string
}

// NewAdmin returns an Admin for a cluster.
func NewAdmin(sess zkmeta.Client, cluster string) *Admin {
	return &Admin{sess: sess, cluster: cluster}
}

// CreateCluster lays out the cluster directory structure. Idempotent.
func (a *Admin) CreateCluster() error {
	for _, p := range []string{
		clusterPath(a.cluster),
		idealStatesPath(a.cluster),
		externalViewsPath(a.cluster),
		liveInstancesPath(a.cluster),
		configsPath(a.cluster),
		currentStatesPath(a.cluster),
		messagesPath(a.cluster),
		propertyStorePath(a.cluster),
	} {
		if err := a.sess.Create(p, nil); err != nil && err != zkmeta.ErrNodeExists {
			return err
		}
	}
	return nil
}

// RegisterInstance stores an instance config and prepares its message queue.
func (a *Admin) RegisterInstance(cfg InstanceConfig) error {
	data, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	if err := a.sess.Create(configPath(a.cluster, cfg.Instance), data); err != nil {
		if err != zkmeta.ErrNodeExists {
			return err
		}
		if _, err := a.sess.Set(configPath(a.cluster, cfg.Instance), data, -1); err != nil {
			return err
		}
	}
	if err := a.sess.Create(instanceMessagesPath(a.cluster, cfg.Instance), nil); err != nil && err != zkmeta.ErrNodeExists {
		return err
	}
	return nil
}

// Instances returns all registered instance configs.
func (a *Admin) Instances() ([]InstanceConfig, error) {
	names, err := a.sess.Children(configsPath(a.cluster))
	if err != nil {
		return nil, err
	}
	out := make([]InstanceConfig, 0, len(names))
	for _, n := range names {
		data, _, err := a.sess.Get(configPath(a.cluster, n))
		if err == zkmeta.ErrNoNode {
			continue // deleted since it was listed
		}
		if err != nil {
			return nil, err // a lost session is not an empty cluster
		}
		var cfg InstanceConfig
		if err := json.Unmarshal(data, &cfg); err != nil {
			return nil, fmt.Errorf("helix: corrupt instance config %s: %w", n, err)
		}
		out = append(out, cfg)
	}
	return out, nil
}

// InstanceConfigOf reads one instance's registered config.
func (a *Admin) InstanceConfigOf(instance string) (InstanceConfig, error) {
	data, _, err := a.sess.Get(configPath(a.cluster, instance))
	if err != nil {
		return InstanceConfig{}, err
	}
	var cfg InstanceConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return InstanceConfig{}, fmt.Errorf("helix: corrupt instance config %s: %w", instance, err)
	}
	return cfg, nil
}

// NewAddrResolver resolves instance names to the data-plane addresses their
// instance configs advertise, reading them over sess and caching each answer
// for ttl so a scattered query does not re-read configs. Every broker
// resolves its scatter targets through one of these, and every server its
// lead controller.
func NewAddrResolver(sess *zkmeta.Kept, cluster string, ttl time.Duration) func(instance string) (string, bool) {
	type entry struct {
		addr    string
		expires time.Time
	}
	var (
		mu    sync.Mutex
		cache = map[string]entry{}
	)
	return func(instance string) (string, bool) {
		mu.Lock()
		defer mu.Unlock()
		if e, ok := cache[instance]; ok && time.Now().Before(e.expires) {
			return e.addr, e.addr != ""
		}
		cfg, err := NewAdmin(sess.Client(), cluster).InstanceConfigOf(instance)
		if err != nil && err != zkmeta.ErrNoNode {
			return "", false // a failed read is not an answer to cache
		}
		cache[instance] = entry{addr: cfg.Addr, expires: time.Now().Add(ttl)}
		return cfg.Addr, cfg.Addr != ""
	}
}

// Leader returns the instance name in the cluster's leader seat, if any.
func Leader(sess zkmeta.Client, cluster string) (string, bool) {
	data, _, err := sess.Get(controllerPath(cluster))
	if err != nil {
		return "", false
	}
	return string(data), true
}

// LiveInstances returns the instances currently holding a live ephemeral.
func (a *Admin) LiveInstances() ([]string, error) {
	return a.sess.Children(liveInstancesPath(a.cluster))
}

// SetIdealState writes the desired placement of a resource.
func (a *Admin) SetIdealState(is *IdealState) error {
	data, err := json.Marshal(is)
	if err != nil {
		return err
	}
	p := idealStatePath(a.cluster, is.Resource)
	if err := a.sess.Create(p, data); err != nil {
		if err != zkmeta.ErrNodeExists {
			return err
		}
		_, err = a.sess.Set(p, data, -1)
		return err
	}
	return nil
}

// UpdateIdealState applies fn to a resource's ideal state under an
// optimistic-concurrency retry loop. fn receives a deep copy; returning
// false aborts without writing.
func (a *Admin) UpdateIdealState(resource string, fn func(is *IdealState) bool) error {
	p := idealStatePath(a.cluster, resource)
	for {
		data, version, err := a.sess.Get(p)
		if err != nil {
			return err
		}
		var is IdealState
		if err := json.Unmarshal(data, &is); err != nil {
			return fmt.Errorf("helix: corrupt ideal state %s: %w", resource, err)
		}
		cp := is.Clone()
		if !fn(cp) {
			return nil
		}
		out, err := json.Marshal(cp)
		if err != nil {
			return err
		}
		if _, err := a.sess.Set(p, out, version); err == nil {
			return nil
		} else if err != zkmeta.ErrBadVersion {
			return err
		}
	}
}

// IdealStateOf reads a resource's ideal state.
func (a *Admin) IdealStateOf(resource string) (*IdealState, error) {
	data, _, err := a.sess.Get(idealStatePath(a.cluster, resource))
	if err != nil {
		return nil, err
	}
	var is IdealState
	if err := json.Unmarshal(data, &is); err != nil {
		return nil, err
	}
	if is.Partitions == nil {
		is.Partitions = map[string]map[string]string{}
	}
	return &is, nil
}

// DropResource removes a resource's ideal state and external view.
func (a *Admin) DropResource(resource string) error {
	if err := a.sess.Delete(idealStatePath(a.cluster, resource), -1); err != nil && err != zkmeta.ErrNoNode {
		return err
	}
	if err := a.sess.Delete(externalViewPath(a.cluster, resource), -1); err != nil && err != zkmeta.ErrNoNode {
		return err
	}
	return nil
}

// Resources lists resources with an ideal state.
func (a *Admin) Resources() ([]string, error) {
	return a.sess.Children(idealStatesPath(a.cluster))
}

// ExternalViewOf reads a resource's external view; a missing view reads as
// empty.
func (a *Admin) ExternalViewOf(resource string) (*ExternalView, error) {
	data, _, err := a.sess.Get(externalViewPath(a.cluster, resource))
	if err == zkmeta.ErrNoNode {
		return &ExternalView{Resource: resource, Partitions: map[string]map[string]string{}}, nil
	}
	if err != nil {
		return nil, err
	}
	var ev ExternalView
	if err := json.Unmarshal(data, &ev); err != nil {
		return nil, err
	}
	if ev.Partitions == nil {
		ev.Partitions = map[string]map[string]string{}
	}
	return &ev, nil
}

// ExternalViewPath returns the store path of a resource's external view,
// for spectators (brokers) registering watches.
func ExternalViewPath(cluster, resource string) string { return externalViewPath(cluster, resource) }

// ExternalViewsPath returns the store path of the external-view directory.
func ExternalViewsPath(cluster string) string { return externalViewsPath(cluster) }

// PropertyStorePath returns the free-form property store root used by Pinot
// for segment metadata.
func PropertyStorePath(cluster string, elems ...string) string {
	return path.Join(append([]string{propertyStorePath(cluster)}, elems...)...)
}

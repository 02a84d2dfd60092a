package helix

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"pinot/internal/zkmeta"
)

// TransitionHandler executes one state transition on a participant (e.g.
// load a segment for OFFLINE→ONLINE). Returning an error moves the replica
// to ERROR.
type TransitionHandler func(resource, partition, from, to string) error

// Participant is an instance that executes state transitions: a Pinot
// server. It holds its own store session so its liveness is independent.
type Participant struct {
	store    zkmeta.Endpoint
	sess     zkmeta.Client
	cluster  string
	instance string
	handler  TransitionHandler

	mu      sync.Mutex
	current map[string]map[string]string // resource -> partition -> state
	stop    chan struct{}
	done    chan struct{}
}

// NewParticipant creates a participant for an instance. Start must be called
// to join the cluster.
func NewParticipant(store zkmeta.Endpoint, cluster, instance string, handler TransitionHandler) *Participant {
	return &Participant{
		store:    store,
		cluster:  cluster,
		instance: instance,
		handler:  handler,
		current:  map[string]map[string]string{},
	}
}

// Start joins the cluster: publishes the live-instance ephemeral, an empty
// current-state node, and begins processing transition messages.
func (p *Participant) Start() error {
	p.sess = p.store.NewClient()
	if err := p.sess.CreateEphemeral(liveInstancePath(p.cluster, p.instance), nil); err != nil {
		p.sess.Close()
		return fmt.Errorf("helix: participant %s: %w", p.instance, err)
	}
	if err := p.writeCurrentState(); err != nil {
		p.sess.Close()
		return err
	}
	if err := p.sess.Create(instanceMessagesPath(p.cluster, p.instance), nil); err != nil && err != zkmeta.ErrNodeExists {
		p.sess.Close()
		return err
	}
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	events, cancel := p.sess.WatchChildren(instanceMessagesPath(p.cluster, p.instance))
	go func() {
		defer close(p.done)
		defer cancel()
		p.processMessages()
		for {
			select {
			case <-p.stop:
				return
			case <-events:
				p.processMessages()
			}
		}
	}()
	return nil
}

// Stop leaves the cluster, deleting the live-instance ephemeral.
func (p *Participant) Stop() {
	if p.stop != nil {
		close(p.stop)
		<-p.done
		p.stop = nil
	}
	if p.sess != nil {
		p.sess.Close()
	}
}

// Kill simulates a crash: the session expires without graceful cleanup.
func (p *Participant) Kill() {
	if p.stop != nil {
		close(p.stop)
		<-p.done
		p.stop = nil
	}
	if p.sess != nil {
		p.sess.Expire()
	}
}

// CurrentState returns the participant's state for a partition ("" if
// none).
func (p *Participant) CurrentState(resource, partition string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.current[resource][partition]
}

func (p *Participant) processMessages() {
	base := instanceMessagesPath(p.cluster, p.instance)
	names, err := p.sess.Children(base)
	if err != nil {
		return
	}
	sort.Strings(names)
	for _, name := range names {
		msgPath := base + "/" + name
		data, _, err := p.sess.Get(msgPath)
		if err != nil {
			continue
		}
		var msg Message
		if err := json.Unmarshal(data, &msg); err != nil {
			_ = p.sess.Delete(msgPath, -1)
			continue
		}
		p.execute(msg)
		_ = p.sess.Delete(msgPath, -1)
	}
}

func (p *Participant) execute(msg Message) {
	p.mu.Lock()
	cur, ok := p.current[msg.Resource][msg.Partition]
	if !ok {
		cur = StateOffline
	}
	p.mu.Unlock()
	if cur != msg.From {
		// Stale message (e.g. duplicate delivery): ignore.
		return
	}
	newState := msg.To
	if p.handler != nil {
		if err := p.handler(msg.Resource, msg.Partition, msg.From, msg.To); err != nil {
			newState = StateError
		}
	}
	p.mu.Lock()
	if newState == StateDropped {
		delete(p.current[msg.Resource], msg.Partition)
		if len(p.current[msg.Resource]) == 0 {
			delete(p.current, msg.Resource)
		}
	} else {
		if p.current[msg.Resource] == nil {
			p.current[msg.Resource] = map[string]string{}
		}
		p.current[msg.Resource][msg.Partition] = newState
	}
	p.mu.Unlock()
	_ = p.writeCurrentState()
}

func (p *Participant) writeCurrentState() error {
	p.mu.Lock()
	data, err := json.Marshal(p.current)
	p.mu.Unlock()
	if err != nil {
		return err
	}
	path := currentStatePath(p.cluster, p.instance)
	if err := p.sess.Create(path, data); err != nil {
		if err != zkmeta.ErrNodeExists {
			return err
		}
		_, err = p.sess.Set(path, data, -1)
		return err
	}
	return nil
}

// readCurrentStates loads every instance's current-state map.
func readCurrentStates(sess zkmeta.Client, cluster string) (map[string]map[string]map[string]string, error) {
	out := map[string]map[string]map[string]string{}
	instances, err := sess.Children(currentStatesPath(cluster))
	if err != nil {
		return nil, err
	}
	for _, inst := range instances {
		data, _, err := sess.Get(currentStatePath(cluster, inst))
		if err != nil {
			continue
		}
		var cs map[string]map[string]string
		if err := json.Unmarshal(data, &cs); err != nil {
			continue
		}
		out[inst] = cs
	}
	return out, nil
}

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
// server. It runs over its role's kept session: the role's onSession calls
// Join, and its loop ends when the role closes that session.
type Participant struct {
	sess     *zkmeta.Kept
	cluster  string
	instance string
	handler  TransitionHandler
	kick     kicker

	mu      sync.Mutex
	current map[string]map[string]string // resource -> partition -> state
}

// NewParticipant creates a participant for an instance. Start must be called
// to join the cluster.
func NewParticipant(cluster, instance string, handler TransitionHandler) *Participant {
	return &Participant{
		cluster:  cluster,
		instance: instance,
		handler:  handler,
		kick:     make(kicker, 1),
		current:  map[string]map[string]string{},
	}
}

// Join is the participant's part of its role's onSession: it publishes the
// live-instance ephemeral, re-writes its current state and re-watches its
// messages, which the loop then processes.
func (p *Participant) Join(sess zkmeta.Client) error {
	if err := sess.CreateEphemeral(liveInstancePath(p.cluster, p.instance), nil); err != nil {
		return fmt.Errorf("helix: participant %s: %w", p.instance, err)
	}
	if err := p.writeCurrentState(sess); err != nil {
		return err
	}
	if err := sess.Create(instanceMessagesPath(p.cluster, p.instance), nil); err != nil && err != zkmeta.ErrNodeExists {
		return err
	}
	p.kick.on(sess.WatchChildren(instanceMessagesPath(p.cluster, p.instance)))
	p.kick.kick()
	return nil
}

// Start processes transition messages over sess until it is closed.
func (p *Participant) Start(sess *zkmeta.Kept) {
	p.sess = sess
	sess.Go(func(done <-chan struct{}) {
		for {
			select {
			case <-done:
				return
			case <-p.kick:
				p.processMessages()
			}
		}
	})
}

// CurrentState returns the participant's state for a partition ("" if
// none).
func (p *Participant) CurrentState(resource, partition string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.current[resource][partition]
}

func (p *Participant) processMessages() {
	sess := p.sess.Client()
	base := instanceMessagesPath(p.cluster, p.instance)
	names, err := sess.Children(base)
	if err != nil {
		return
	}
	sort.Strings(names)
	for _, name := range names {
		msgPath := base + "/" + name
		data, _, err := sess.Get(msgPath)
		if err != nil {
			continue
		}
		var msg Message
		if err := json.Unmarshal(data, &msg); err != nil {
			_ = sess.Delete(msgPath, -1)
			continue
		}
		p.execute(sess, msg)
		_ = sess.Delete(msgPath, -1)
	}
}

func (p *Participant) execute(sess zkmeta.Client, msg Message) {
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
	_ = p.writeCurrentState(sess)
}

func (p *Participant) writeCurrentState(sess zkmeta.Client) error {
	// Join and the loop both write: holding the lock through the write
	// keeps an older state from landing last.
	p.mu.Lock()
	defer p.mu.Unlock()
	data, err := json.Marshal(p.current)
	if err != nil {
		return err
	}
	path := currentStatePath(p.cluster, p.instance)
	if err := sess.Create(path, data); err != nil {
		if err != zkmeta.ErrNodeExists {
			return err
		}
		_, err = sess.Set(path, data, -1)
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

package controller

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"time"

	"pinot/internal/helix"
	"pinot/internal/segment"
	"pinot/internal/startree"
	"pinot/internal/table"
	"pinot/internal/transport"
	"pinot/internal/zkmeta"
)

func jsonMarshal(v any) ([]byte, error) { return json.Marshal(v) }

func unmarshalTableConfig(data []byte) (*table.Config, error) {
	var cfg table.Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, err
	}
	return &cfg, nil
}

func crc32Of(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// checkSegment is the integrity check of an upload or a commit (paper 3.3.5:
// the controller "unpacks it to ensure its integrity"). It is the pass a
// server runs before it serves these bytes in place — the segment's sections
// and the star-tree inside them — so what the controller stores and
// checksums, a server will load.
func checkSegment(blob []byte) (*segment.Segment, error) {
	seg, err := segment.Unmarshal(blob)
	if err != nil {
		return nil, err
	}
	if _, err := startree.Load(seg); err != nil {
		return nil, err
	}
	return seg, nil
}

// completionState is a phase of the per-segment completion FSM.
type completionState uint8

const (
	// gathering: collecting replica polls until all report or the window
	// elapses.
	gathering completionState = iota
	// committing: a committer has been designated and asked to commit.
	committing
	// committed: a copy is durable; stragglers get KEEP or DISCARD.
	committed
)

// completionFSM coordinates the replicas of one consuming segment (paper
// 3.3.6): it waits until enough replicas have polled (or enough time has
// passed), catches every replica up to the largest observed offset, and
// picks one replica at that offset to be the committer.
type completionFSM struct {
	resource string
	segment  string
	window   time.Duration

	state           completionState
	polls           map[string]int64 // instance -> reported offset
	firstPoll       time.Time
	maxOffset       int64
	committer       string
	commitAsked     time.Time
	committedOffset int64
	expectedPolls   int
}

func newCompletionFSM(resource, seg string, replicas int, window time.Duration) *completionFSM {
	return &completionFSM{
		resource:      resource,
		segment:       seg,
		window:        window,
		polls:         map[string]int64{},
		maxOffset:     -1,
		expectedPolls: replicas,
	}
}

// onPoll computes the instruction for a replica poll.
func (f *completionFSM) onPoll(instance string, offset int64, now time.Time) *transport.SegmentConsumedResponse {
	if f.state == committed {
		if offset == f.committedOffset {
			return &transport.SegmentConsumedResponse{Action: transport.ActionKeep}
		}
		return &transport.SegmentConsumedResponse{Action: transport.ActionDiscard}
	}
	if len(f.polls) == 0 {
		f.firstPoll = now
	}
	f.polls[instance] = offset
	if offset > f.maxOffset {
		f.maxOffset = offset
		if f.state == committing && f.committer != instance {
			// A replica surged past the designated committer (it
			// consumed more before its first poll): the committer
			// designation is stale. Re-gather.
			f.state = gathering
			f.committer = ""
		}
	}
	switch f.state {
	case gathering:
		allPolled := len(f.polls) >= f.expectedPolls
		windowOver := now.Sub(f.firstPoll) >= f.window
		if !allPolled && !windowOver {
			return &transport.SegmentConsumedResponse{Action: transport.ActionHold}
		}
		// Catch this replica up, or make it the committer.
		if offset < f.maxOffset {
			return &transport.SegmentConsumedResponse{Action: transport.ActionCatchup, TargetOffset: f.maxOffset}
		}
		f.state = committing
		f.committer = instance
		f.commitAsked = now
		return &transport.SegmentConsumedResponse{Action: transport.ActionCommit}
	case committing:
		if offset < f.maxOffset {
			return &transport.SegmentConsumedResponse{Action: transport.ActionCatchup, TargetOffset: f.maxOffset}
		}
		if instance == f.committer {
			f.commitAsked = now
			return &transport.SegmentConsumedResponse{Action: transport.ActionCommit}
		}
		// The committer may have died mid-commit: after a grace
		// period, promote this caught-up replica.
		if now.Sub(f.commitAsked) >= f.window {
			f.committer = instance
			f.commitAsked = now
			return &transport.SegmentConsumedResponse{Action: transport.ActionCommit}
		}
		return &transport.SegmentConsumedResponse{Action: transport.ActionHold}
	}
	return &transport.SegmentConsumedResponse{Action: transport.ActionHold}
}

// SegmentConsumed handles a replica's completion-protocol poll. Non-leader
// controllers answer NOTLEADER (paper 3.3.6).
func (c *Controller) SegmentConsumed(ctx context.Context, req *transport.SegmentConsumedRequest) (*transport.SegmentConsumedResponse, error) {
	if !c.IsLeader() {
		return c.verdict(&transport.SegmentConsumedResponse{Action: transport.ActionNotLeader}), nil
	}
	// A segment with no record is no consuming segment: the poll opens no
	// completion and is told to hold. A segment already committed (e.g.
	// before a controller failover) answers from durable metadata.
	meta, err := ReadSegmentMeta(c.session(), c.cfg.Cluster, req.Resource, req.Segment)
	if err != nil {
		return c.verdict(&transport.SegmentConsumedResponse{Action: transport.ActionHold}), nil
	}
	if meta.Status == table.StatusDone {
		if c.advance(req.Resource, req.Segment, meta.EndOffset) != nil {
			return c.verdict(&transport.SegmentConsumedResponse{Action: transport.ActionHold}), nil
		}
		if req.Offset == meta.EndOffset {
			return c.verdict(&transport.SegmentConsumedResponse{Action: transport.ActionKeep}), nil
		}
		return c.verdict(&transport.SegmentConsumedResponse{Action: transport.ActionDiscard}), nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := req.Resource + "/" + req.Segment
	fsm, ok := c.completions[key]
	if !ok {
		replicas := c.replicaCount(req.Resource, req.Segment)
		fsm = newCompletionFSM(req.Resource, req.Segment, replicas, c.cfg.completionWindow)
		c.completions[key] = fsm
	}
	return c.verdict(fsm.onPoll(req.Instance, req.Offset, time.Now())), nil
}

func (c *Controller) replicaCount(resource, seg string) int {
	is, err := c.helixAdmin().IdealStateOf(resource)
	if err != nil {
		return 1
	}
	n := len(is.Partitions[seg])
	if n == 0 {
		return 1
	}
	return n
}

// CommitSegment accepts the designated committer's sealed segment: the blob
// becomes durable, metadata flips to DONE, all replicas' desired state moves
// to ONLINE, and the next consuming segment is created at the committed
// offset.
func (c *Controller) CommitSegment(ctx context.Context, req *transport.SegmentCommitRequest) (*transport.SegmentCommitResponse, error) {
	if !c.IsLeader() {
		return &transport.SegmentCommitResponse{Success: false, Reason: "not leader"}, nil
	}
	c.mu.Lock()
	key := req.Resource + "/" + req.Segment
	fsm, ok := c.completions[key]
	if !ok || fsm.state == committed {
		alreadyDone := ok && fsm.state == committed
		c.mu.Unlock()
		if alreadyDone {
			return &transport.SegmentCommitResponse{Success: false, Reason: "already committed"}, nil
		}
		return &transport.SegmentCommitResponse{Success: false, Reason: "no completion in progress"}, nil
	}
	if fsm.committer != req.Instance {
		c.mu.Unlock()
		return &transport.SegmentCommitResponse{Success: false, Reason: "not the designated committer"}, nil
	}
	if req.Offset != fsm.maxOffset {
		c.mu.Unlock()
		return &transport.SegmentCommitResponse{Success: false, Reason: fmt.Sprintf("offset %d does not match target %d", req.Offset, fsm.maxOffset)}, nil
	}
	c.mu.Unlock()

	if err := c.finalizeCommit(req); err != nil {
		return &transport.SegmentCommitResponse{Success: false, Reason: err.Error()}, nil
	}
	c.mu.Lock()
	fsm.state = committed
	fsm.committedOffset = req.Offset
	c.mu.Unlock()
	c.met.commits.With(c.cfg.Instance, req.Resource).Inc()
	return &transport.SegmentCommitResponse{Success: true}, nil
}

func (c *Controller) finalizeCommit(req *transport.SegmentCommitRequest) error {
	seg, err := checkSegment(req.Blob)
	if err != nil {
		return fmt.Errorf("controller: committed segment corrupt: %w", err)
	}
	// The metadata is read and checked before the blob is stored, so a
	// commit that finds the segment DONE leaves no object behind; the
	// versioned Set below still refuses one that races another commit.
	metaPath := c.segmentMetaPath(req.Resource, req.Segment)
	data, version, err := c.session().Get(metaPath)
	if err != nil {
		return err
	}
	meta, err := table.UnmarshalSegmentMeta(data)
	if err != nil {
		return err
	}
	if meta.Status == table.StatusDone {
		return fmt.Errorf("controller: %s already committed", req.Segment) // by a leader that lost its seat mid-commit
	}
	crc := crc32Of(req.Blob)
	objKey := table.SegmentObjectKey(req.Resource, req.Segment, crc)
	if err := c.objects.Put(objKey, req.Blob); err != nil {
		return err
	}
	smeta := seg.Metadata()
	meta.Status = table.StatusDone
	meta.NumDocs = seg.NumDocs()
	meta.SizeBytes = int64(len(req.Blob))
	meta.MinTime = smeta.MinTime
	meta.MaxTime = smeta.MaxTime
	meta.ObjectKey = objKey
	meta.CRC = crc
	meta.EndOffset = req.Offset
	if _, err := c.session().Set(metaPath, meta.Marshal(), version); err != nil {
		return err
	}
	c.met.segStates.With(c.cfg.Instance, string(table.StatusDone)).Inc()
	return c.advance(req.Resource, req.Segment, req.Offset)
}

// advance applies the ideal-state half of a DONE segment's commit: its
// consuming replicas go ONLINE, and the next consuming segment starts at its
// end offset. A second run changes nothing, so every poll of a DONE segment
// re-runs it: a session lost between the DONE write and this step left the
// partition without a consuming segment for good.
func (c *Controller) advance(resource, segName string, endOffset int64) error {
	cfg, err := c.TableConfig(resource)
	if err != nil {
		return err
	}
	tableName, partition, seq, err := table.ParseConsumingSegmentName(segName)
	if err != nil {
		return err
	}
	nextName := table.ConsumingSegmentName(tableName, partition, seq+1)
	nextMeta := &table.SegmentMeta{
		Name:        nextName,
		Resource:    resource,
		Status:      table.StatusInProgress,
		Partition:   partition,
		StartOffset: endOffset,
		EndOffset:   -1,
	}
	if err := c.session().Create(c.segmentMetaPath(resource, nextName), nextMeta.Marshal()); err == nil {
		c.met.segStates.With(c.cfg.Instance, string(table.StatusInProgress)).Inc()
	} else if err != zkmeta.ErrNodeExists {
		return err
	}
	servers, err := c.eligibleServers(cfg)
	if err == nil && len(servers) == 0 {
		err = fmt.Errorf("controller: no server can consume %s", nextName)
	}
	if err != nil {
		return err
	}
	err = c.helixAdmin().UpdateIdealState(resource, func(is *helix.IdealState) bool {
		changed := false
		for inst, state := range is.Partitions[segName] {
			if state == helix.StateConsuming {
				is.Partitions[segName][inst] = helix.StateOnline
				changed = true
			}
		}
		if len(is.Partitions[nextName]) == 0 {
			replicas := pickReplicas(servers, is, cfg.Replicas, partition+seq+1)
			assignment := map[string]string{}
			for _, r := range replicas {
				assignment[r] = helix.StateConsuming
			}
			is.Partitions[nextName] = assignment
			changed = true
		}
		return changed
	})
	if err != nil {
		return err
	}
	c.helixCtl.Kick()
	return nil
}

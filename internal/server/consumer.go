package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"pinot/internal/controller"
	"pinot/internal/expr"
	"pinot/internal/pql"
	"pinot/internal/segment"
	"pinot/internal/startree"
	"pinot/internal/stream"
	"pinot/internal/transport"
)

// consumer ingests one stream partition into a mutable segment and, when the
// end criteria is reached, runs the replica side of the segment completion
// protocol (paper 3.3.6).
type consumer struct {
	tdm     *tableDataManager
	segName string
	seg     *segment.MutableSegment
	cons    *stream.Consumer
	topic   *stream.Topic
	// behindSince marks when the consumer last fell behind the partition
	// head; zero while caught up. Feeds the lag-millis gauge.
	behindSince time.Time
	// End criteria (paper 3.3.6): a row count, a wall-clock duration, or
	// both — whichever is reached first. Time-based flushes make replicas
	// diverge (local clocks), which the completion protocol reconciles.
	endRows int
	endTime time.Duration
	stop    chan struct{}
	done    chan struct{} // closed when run returns
	// sealed is the immutable copy this replica committed or was told to
	// KEEP, awaiting CONSUMING→ONLINE. Written by run's goroutine only;
	// read after done is closed.
	sealed *segment.Segment
	// Ingestion-time transforms (tentpole: derived values materialize as
	// real columns in the consuming segment). base is the schema of the
	// raw stream events; derived evaluates against it with the sandboxed
	// interpreter, one row at a time, in consumption order — so every
	// replica computes identical values from identical bytes.
	base    *segment.Schema
	derived []derivedEval
	ectx    *expr.Ctx
}

// derivedEval is one parsed derived-column expression.
type derivedEval struct {
	name string
	e    pql.Expr
}

// startConsuming handles the OFFLINE→CONSUMING transition: every replica
// creates a consumer at the segment's start offset, so all replicas consume
// the exact same data.
func (t *tableDataManager) startConsuming(segName string) error {
	meta, err := controller.ReadSegmentMeta(t.server.sess, t.server.cfg.Cluster, t.resource, segName)
	if err != nil {
		return fmt.Errorf("server %s: consuming segment %s metadata: %w", t.server.cfg.Instance, segName, err)
	}
	cfg := t.cfg.Load()
	topic, err := t.server.streams.Topic(cfg.StreamTopic)
	if err != nil {
		return err
	}
	sc, err := stream.NewConsumer(topic, meta.Partition, meta.StartOffset)
	if err != nil {
		return err
	}
	eff, err := cfg.EffectiveSchema()
	if err != nil {
		return fmt.Errorf("server %s: consuming segment %s: %w", t.server.cfg.Instance, segName, err)
	}
	ms, err := segment.NewMutableSegment(t.resource, segName, eff, cfg.IndexConfig())
	if err != nil {
		return err
	}
	derived := make([]derivedEval, 0, len(cfg.DerivedColumns))
	for _, d := range cfg.DerivedColumns {
		e, err := d.Parsed()
		if err != nil {
			return fmt.Errorf("server %s: consuming segment %s: derived column %q: %w",
				t.server.cfg.Instance, segName, d.Name, err)
		}
		derived = append(derived, derivedEval{name: d.Name, e: e})
	}
	c := &consumer{
		tdm:     t,
		segName: segName,
		seg:     ms,
		cons:    sc,
		topic:   topic,
		endRows: cfg.FlushThresholdRows,
		endTime: time.Duration(cfg.FlushThresholdMillis) * time.Millisecond,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		base:    cfg.Schema,
		derived: derived,
	}
	if len(derived) > 0 {
		c.ectx = expr.NewCtx(expr.Limits{})
		c.ectx.Check = func() error {
			if c.stopped() {
				return errors.New("server: consumer stopped")
			}
			return nil
		}
	}
	t.mu.Lock()
	t.consuming[segName] = c
	t.mu.Unlock()
	go c.run()
	return nil
}

// completeConsuming handles CONSUMING→ONLINE: promote the locally sealed
// copy if this replica committed (or was told KEEP), otherwise download the
// authoritative copy from the object store (DISCARD path).
func (t *tableDataManager) completeConsuming(segName string) error {
	t.mu.RLock()
	c := t.consuming[segName]
	t.mu.RUnlock()
	var sealed *segment.Segment
	if c != nil {
		// Give the completion loop a moment to finish its commit
		// conversation, then stop it. The consuming segment stays
		// queryable until install swaps in its replacement.
		select {
		case <-c.done:
		case <-time.After(3 * time.Second):
		}
		c.halt()
		sealed = c.sealed
	}
	var err error
	if sealed != nil {
		err = t.install(sealed)
	} else {
		err = t.loadFromStore(segName)
	}
	if err != nil {
		// The replica goes to ERROR: it must not keep serving the copy
		// it failed to replace.
		t.unload(segName)
	}
	return err
}

func (c *consumer) halt() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
}

func (c *consumer) stopped() bool {
	select {
	case <-c.stop:
		return true
	default:
		return false
	}
}

func (c *consumer) run() {
	defer close(c.done)
	rows := 0
	start := time.Now()
	met := c.tdm.server.met
	for !c.stopped() {
		c.updateLag()
		if c.endRows > 0 && rows >= c.endRows {
			met.consumerFlushes.With(met.instance, c.tdm.resource, "rows").Inc()
			c.complete()
			return
		}
		if c.endTime > 0 && time.Since(start) >= c.endTime && rows > 0 {
			// Time criterion: replicas hit this at different local
			// offsets; the completion protocol's CATCHUP/DISCARD
			// paths reconcile them (paper 3.3.6).
			met.consumerFlushes.With(met.instance, c.tdm.resource, "time").Inc()
			c.complete()
			return
		}
		// Never poll past the row criterion: the consumer offset must
		// equal the number of consumed messages so row-bounded
		// replicas agree exactly on segment boundaries.
		max := c.tdm.server.cfg.ConsumeBatch
		if c.endRows > 0 && c.endRows-rows < max {
			max = c.endRows - rows
		}
		msgs, err := c.cons.Poll(max)
		if err != nil || len(msgs) == 0 {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		for _, m := range msgs {
			// A malformed event is skipped but still counts toward
			// the end criteria (all replicas consume identical bytes,
			// so they stay deterministic); ingestion must not wedge
			// on bad input.
			_ = c.indexMessage(m.Value)
			rows++
		}
		met.consumerRows.With(met.instance, c.tdm.resource).Add(int64(len(msgs)))
	}
}

func (c *consumer) indexMessage(value []byte) error {
	dec := json.NewDecoder(bytes.NewReader(value))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return err
	}
	for _, d := range c.derived {
		v, err := expr.Eval(c.ectx, d.e, c.rowGetter(m))
		if err != nil {
			// A row whose transform fails is skipped like any malformed
			// event: deterministic across replicas (identical bytes,
			// identical limits), and ingestion never wedges.
			return err
		}
		m[d.name] = v
	}
	return c.seg.AddMap(m)
}

// rowGetter adapts one decoded stream event to the interpreter's column
// accessor, canonicalizing values against the base schema (the raw event
// fields; derived columns cannot reference each other). Missing fields read
// as the schema default, exactly what AddMap would store for them.
func (c *consumer) rowGetter(m map[string]any) expr.Getter {
	return func(name string) any {
		f, ok := c.base.Field(name)
		if !ok {
			return nil
		}
		v, ok := m[name]
		if !ok {
			return segment.DefaultValue(f)
		}
		cv, err := segment.CanonicalizeField(f, v)
		if err != nil {
			return nil
		}
		return cv
	}
}

// consumeTo catches the replica up to the target offset (CATCHUP).
func (c *consumer) consumeTo(target int64) {
	met := c.tdm.server.met
	for c.cons.Offset() < target && !c.stopped() {
		max := int(target - c.cons.Offset())
		if max > c.tdm.server.cfg.ConsumeBatch {
			max = c.tdm.server.cfg.ConsumeBatch
		}
		msgs, err := c.cons.Poll(max)
		if err != nil || len(msgs) == 0 {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		for _, m := range msgs {
			_ = c.indexMessage(m.Value)
		}
		met.consumerRows.With(met.instance, c.tdm.resource).Add(int64(len(msgs)))
	}
}

// completionPollInterval paces completion-protocol polling.
const completionPollInterval = 10 * time.Millisecond

// complete runs the replica side of the completion protocol: poll the lead
// controller with the current offset and follow its instructions.
func (c *consumer) complete() {
	s := c.tdm.server
	for !c.stopped() {
		client, ok := s.leaderController()
		if !ok {
			time.Sleep(completionPollInterval)
			continue
		}
		resp, err := client.SegmentConsumed(context.Background(), &transport.SegmentConsumedRequest{
			Segment:  c.segName,
			Resource: c.tdm.resource,
			Instance: s.cfg.Instance,
			Offset:   c.cons.Offset(),
		})
		if err != nil {
			time.Sleep(completionPollInterval)
			continue
		}
		s.recordCompletionAction(resp.Action)
		switch resp.Action {
		case transport.ActionHold:
			time.Sleep(completionPollInterval)
		case transport.ActionNotLeader:
			time.Sleep(completionPollInterval)
		case transport.ActionCatchup:
			c.consumeTo(resp.TargetOffset)
		case transport.ActionKeep:
			c.keepLocal()
			return
		case transport.ActionDiscard:
			// Another replica committed a different version; the
			// authoritative copy arrives via CONSUMING→ONLINE.
			return
		case transport.ActionCommit:
			blob, seg, err := c.sealBlob()
			if err != nil {
				time.Sleep(completionPollInterval)
				continue
			}
			cr, err := client.CommitSegment(context.Background(), &transport.SegmentCommitRequest{
				Segment:  c.segName,
				Resource: c.tdm.resource,
				Instance: s.cfg.Instance,
				Offset:   c.cons.Offset(),
				Blob:     blob,
			})
			if err != nil || !cr.Success {
				// Paper 3.3.6 COMMIT: "if the commit fails, resume
				// polling".
				time.Sleep(completionPollInterval)
				continue
			}
			c.sealed = seg
			return
		}
	}
}

// keepLocal seals the consuming segment and keeps it as the local ONLINE
// copy (offsets matched the committed copy exactly).
func (c *consumer) keepLocal() {
	if _, seg, err := c.sealBlob(); err == nil {
		c.sealed = seg
	}
}

// sealBlob converts the mutable segment to its immutable form, attaches the
// configured star-tree, and marshals it for commit.
func (c *consumer) sealBlob() ([]byte, *segment.Segment, error) {
	seg, err := c.seg.Seal()
	if err != nil {
		return nil, nil, err
	}
	if stCfg := c.tdm.cfg.Load().StarTree; stCfg != nil {
		tree, err := startree.Build(seg, *stCfg)
		if err != nil {
			return nil, nil, err
		}
		data, err := tree.Marshal()
		if err != nil {
			return nil, nil, err
		}
		seg.SetStarTreeData(data)
	}
	blob, err := seg.Marshal()
	if err != nil {
		return nil, nil, err
	}
	return blob, seg, nil
}

// leaderController returns a client for the current lead controller.
func (s *Server) leaderController() (transport.ControllerClient, bool) {
	for _, c := range s.controllers() {
		if lc, ok := c.(interface{ IsLeader() bool }); ok {
			if lc.IsLeader() {
				return c, true
			}
			continue
		}
		return c, true // remote client: let NOTLEADER responses rotate
	}
	return nil, false
}

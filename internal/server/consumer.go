package server

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"pinot/internal/controller"
	"pinot/internal/expr"
	"pinot/internal/metrics"
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
	// row is the one staging row every event is decoded into (dec) and
	// appended from; nothing is allocated per event.
	row *segment.TypedRow
	dec *eventDecoder
	// Ingestion-time transforms: derived values materialize as real columns
	// in the consuming segment. Each evaluates against the event's fields
	// (get reads the staged row) with the sandboxed interpreter, one row at
	// a time, in consumption order — so every replica computes identical
	// values from identical bytes.
	derived []derivedEval
	get     expr.Getter
	ectx    *expr.Ctx

	// Instrument handles, resolved once.
	rowsMet    *metrics.Instrument
	skippedMet map[string]*metrics.Instrument // by reason
	lagEvents  *metrics.Instrument
	lagMillis  *metrics.Instrument
}

// Why an event was skipped, the reason label of
// pinot_consumer_events_skipped_total.
const (
	skipDecode    = "decode"    // not a JSON object
	skipSchema    = "schema"    // a value does not fit its column's type
	skipTransform = "transform" // a derived-column expression failed
)

// derivedEval is one parsed derived-column expression and the row field it
// fills.
type derivedEval struct {
	field int
	spec  segment.FieldSpec
	e     pql.Expr
}

// startConsuming handles the OFFLINE→CONSUMING transition: every replica
// creates a consumer at the segment's start offset, so all replicas consume
// the exact same data.
func (t *tableDataManager) startConsuming(segName string) error {
	meta, err := controller.ReadSegmentMeta(t.server.sess.Client(), t.server.cfg.Cluster, t.resource, segName)
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
		derived = append(derived, derivedEval{field: eff.FieldIndex(d.Name), spec: d.FieldSpec(), e: e})
	}
	met, part := t.server.met, strconv.Itoa(meta.Partition)
	row := ms.NewRow()
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
		row:     row,
		dec:     newEventDecoder(cfg.Schema, row),
		derived: derived,

		rowsMet:    met.consumerRows.With(met.instance, t.resource),
		skippedMet: map[string]*metrics.Instrument{},
		lagEvents:  met.lagEvents.With(met.instance, t.resource, part),
		lagMillis:  met.lagMillis.With(met.instance, t.resource, part),
	}
	for _, reason := range []string{skipDecode, skipSchema, skipTransform} {
		c.skippedMet[reason] = met.consumerSkipped.With(met.instance, t.resource, reason)
	}
	if len(derived) > 0 {
		// Derived columns read the event's own fields (they cannot reference
		// each other); a field the event left out reads as its default, which
		// is what the row holds for it.
		base := cfg.Schema
		c.get = func(name string) any {
			if i := base.FieldIndex(name); i >= 0 {
				return row.Value(i)
			}
			return nil
		}
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
		c.index(msgs)
		rows += len(msgs)
	}
}

// index appends a batch of events to the consuming segment. A malformed
// event is counted and skipped but still counts toward the end criteria (all
// replicas consume identical bytes, so they stay deterministic); ingestion
// must not wedge on bad input.
func (c *consumer) index(msgs []stream.Message) {
	for _, m := range msgs {
		if reason, _ := c.indexMessage(m.Value); reason != "" {
			c.skippedMet[reason].Inc()
		}
	}
	c.rowsMet.Add(int64(len(msgs)))
}

// indexMessage decodes one event into the staging row, fills the derived
// columns from it and appends the row. A non-empty reason says why the event
// was skipped instead.
func (c *consumer) indexMessage(value []byte) (reason string, err error) {
	if err := c.dec.decode(value); err != nil {
		if errors.Is(err, errEventType) {
			return skipSchema, err
		}
		return skipDecode, err
	}
	for _, d := range c.derived {
		v, err := expr.Eval(c.ectx, d.e, c.get)
		if err != nil {
			// A row whose transform fails is skipped like any malformed
			// event: deterministic across replicas (identical bytes,
			// identical limits), and ingestion never wedges.
			return skipTransform, err
		}
		if v, err = segment.CanonicalizeField(d.spec, v); err != nil {
			return skipSchema, err
		}
		if err := c.row.Set(d.field, v); err != nil {
			return skipSchema, err
		}
	}
	if err := c.seg.Append(c.row); err != nil {
		return skipSchema, err
	}
	return "", nil
}

// consumeTo catches the replica up to the target offset (CATCHUP).
func (c *consumer) consumeTo(target int64) {
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
		c.index(msgs)
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

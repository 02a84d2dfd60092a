package server

import (
	"time"

	"pinot/internal/metrics"
)

// serverMetrics caches the server's instrument handles. Everything carries
// an instance label so one registry (one in-process cluster) can tell its
// servers apart; per-instance children are resolved once here and the data
// plane pays only atomic adds.
type serverMetrics struct {
	reg      *metrics.Registry
	instance string

	queries      *metrics.Instrument
	failures     *metrics.Instrument
	queueWait    *metrics.Instrument // histogram, µs
	segExecuted  *metrics.Instrument
	segCancelled *metrics.Instrument
	segSkipped   *metrics.Instrument
	docs         *metrics.Instrument
	entries      *metrics.Instrument
	groupState   *metrics.Instrument // histogram, bytes per query

	transitions  *metrics.Family // labels: instance, to
	loadFailures *metrics.Family // labels: instance, resource, reason
	completion   *metrics.Family // labels: instance, action

	consumerRows    *metrics.Family // labels: instance, resource
	consumerSkipped *metrics.Family // labels: instance, resource, reason
	consumerFlushes *metrics.Family // labels: instance, resource, reason
	lagEvents       *metrics.Family // labels: instance, resource, partition
	lagMillis       *metrics.Family // labels: instance, resource, partition
}

func newServerMetrics(reg *metrics.Registry, instance string) *serverMetrics {
	if reg == nil {
		reg = metrics.Default()
	}
	m := &serverMetrics{reg: reg, instance: instance}
	m.queries = reg.Counter("pinot_server_queries_total",
		"Queries executed by this server.", "instance").With(instance)
	m.failures = reg.Counter("pinot_server_query_failures_total",
		"Queries that returned an error from this server.", "instance").With(instance)
	m.queueWait = reg.Histogram("pinot_server_queue_wait_us",
		"Tenancy-scheduler queue wait in microseconds.", "instance").With(instance)
	m.segExecuted = reg.Counter("pinot_server_segments_executed_total",
		"Segment plans run to completion.", "instance").With(instance)
	m.segCancelled = reg.Counter("pinot_server_segments_cancelled_total",
		"Segment plans cancelled mid-scan by deadline or cancellation.", "instance").With(instance)
	m.segSkipped = reg.Counter("pinot_server_segments_skipped_total",
		"Segments never dispatched before the deadline.", "instance").With(instance)
	m.docs = reg.Counter("pinot_server_docs_scanned_total",
		"Documents scanned by query execution.", "instance").With(instance)
	m.entries = reg.Counter("pinot_server_entries_scanned_total",
		"Column entries scanned by query execution.", "instance").With(instance)
	m.groupState = reg.Histogram("pinot_server_group_state_bytes",
		"Group-by state bytes held per query.", "instance").With(instance)
	m.transitions = reg.Counter("pinot_server_transitions_total",
		"Helix state transitions executed, by target state.", "instance", "to")
	m.loadFailures = reg.Counter("pinot_server_segment_load_failures_total",
		"Segments refused on download: metadata or blob unreadable, checksum mismatch, corrupt contents.", "instance", "resource", "reason")
	m.completion = reg.Counter("pinot_server_completion_actions_total",
		"Completion-protocol instructions received, by action.", "instance", "action")
	m.consumerRows = reg.Counter("pinot_consumer_rows_consumed_total",
		"Stream rows consumed into mutable segments.", "instance", "resource")
	m.consumerSkipped = reg.Counter("pinot_consumer_events_skipped_total",
		"Stream events consumed but not indexed, by reason (decode, schema or transform).", "instance", "resource", "reason")
	m.consumerFlushes = reg.Counter("pinot_consumer_flushes_total",
		"Consuming-segment flushes, by end criterion (rows or time).", "instance", "resource", "reason")
	m.lagEvents = reg.Gauge("pinot_consumer_lag_events",
		"Events between the partition head and the consumer offset.", "instance", "resource", "partition")
	m.lagMillis = reg.Gauge("pinot_consumer_lag_millis",
		"How long the consumer has been continuously behind the head.", "instance", "resource", "partition")
	return m
}

// updateLag publishes one consumer's ingestion-lag gauges: the event gap to
// the partition head, and — since the in-memory stream carries no event
// timestamps — how long the consumer has been continuously behind, which is
// zero whenever it is caught up.
func (c *consumer) updateLag() {
	latest, err := c.topic.LatestOffset(c.cons.Partition())
	if err != nil {
		return
	}
	lag := latest - c.cons.Offset()
	if lag < 0 {
		lag = 0
	}
	if lag == 0 {
		c.behindSince = time.Time{}
	} else if c.behindSince.IsZero() {
		c.behindSince = time.Now()
	}
	var behind int64
	if !c.behindSince.IsZero() {
		behind = time.Since(c.behindSince).Milliseconds()
	}
	c.lagEvents.Set(lag)
	c.lagMillis.Set(behind)
}

// Package pinot is a from-scratch Go reproduction of "Pinot: Realtime OLAP
// for 530 Million Users" (Im et al., SIGMOD 2018): a distributed OLAP store
// with columnar segments, inverted / sorted-column / star-tree indexes, a
// SQL-subset query language (PQL), near-realtime stream ingestion with a
// replica segment-completion protocol, Helix-style cluster management,
// broker scatter/gather with balanced, large-cluster and partition-aware
// routing, hybrid offline+realtime tables, retention management, minion
// maintenance tasks and multitenant token-bucket scheduling.
//
// The package is a facade over the internal subsystems. Quick start:
//
//	c, _ := pinot.NewCluster(pinot.ClusterOptions{Servers: 2})
//	defer c.Shutdown()
//	schema, _ := pinot.NewSchema("events", []pinot.FieldSpec{
//		{Name: "country", Type: pinot.TypeString, Kind: pinot.Dimension, SingleValue: true},
//		{Name: "clicks", Type: pinot.TypeLong, Kind: pinot.Metric, SingleValue: true},
//		{Name: "day", Type: pinot.TypeLong, Kind: pinot.Time, SingleValue: true},
//	})
//	c.AddTable(&pinot.TableConfig{Name: "events", Type: pinot.Offline, Schema: schema, Replicas: 1})
//	blob, _ := pinot.BuildSegmentBlob("events", "events_0", schema, pinot.IndexConfig{}, rows, nil)
//	c.UploadSegment("events_OFFLINE", blob)
//	c.WaitForOnline("events_OFFLINE", 1, 5*time.Second)
//	res, _ := c.Query(context.Background(), "SELECT sum(clicks) FROM events GROUP BY country")
package pinot

import (
	"context"
	"time"

	"pinot/internal/broker"
	"pinot/internal/cluster"
	"pinot/internal/controller"
	"pinot/internal/query"
	"pinot/internal/segment"
	"pinot/internal/startree"
	"pinot/internal/table"
)

// Re-exported schema and table types.
type (
	// Schema is a table's fixed column layout.
	Schema = segment.Schema
	// FieldSpec describes one column.
	FieldSpec = segment.FieldSpec
	// DataType is a column's declared type.
	DataType = segment.DataType
	// FieldKind distinguishes dimensions, metrics and the time column.
	FieldKind = segment.FieldKind
	// Row is a record aligned with a schema.
	Row = segment.Row
	// IndexConfig selects a segment's physical layout.
	IndexConfig = segment.IndexConfig
	// Segment is an immutable columnar record collection.
	Segment = segment.Segment
	// TableConfig configures a table.
	TableConfig = table.Config
	// TableType distinguishes offline and realtime tables.
	TableType = table.Type
	// StarTreeConfig configures a star-tree index.
	StarTreeConfig = startree.Config
	// Result is a finalized query response.
	Result = query.Result
	// Response is a broker query response.
	Response = broker.Response
	// Stats are per-query execution statistics.
	Stats = query.Stats
	// Task is a minion maintenance task.
	Task = controller.Task
)

// Column data types.
const (
	TypeInt     = segment.TypeInt
	TypeLong    = segment.TypeLong
	TypeFloat   = segment.TypeFloat
	TypeDouble  = segment.TypeDouble
	TypeString  = segment.TypeString
	TypeBoolean = segment.TypeBoolean
)

// Column kinds.
const (
	Dimension = segment.Dimension
	Metric    = segment.Metric
	Time      = segment.Time
)

// Table types.
const (
	Offline  = table.Offline
	Realtime = table.Realtime
)

// NewSchema validates and builds a schema.
func NewSchema(name string, fields []FieldSpec) (*Schema, error) {
	return segment.NewSchema(name, fields)
}

// BuildSegmentBlob builds an immutable segment from rows (applying the index
// config and optional star-tree) and serializes it for upload.
func BuildSegmentBlob(tableName, segmentName string, schema *Schema, idx IndexConfig, rows []Row, st *StarTreeConfig) ([]byte, error) {
	b, err := segment.NewBuilder(tableName, segmentName, schema, idx)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if err := b.Add(r); err != nil {
			return nil, err
		}
	}
	seg, err := b.Build()
	if err != nil {
		return nil, err
	}
	if st != nil {
		tree, err := startree.Build(seg, *st)
		if err != nil {
			return nil, err
		}
		data, err := tree.Marshal()
		if err != nil {
			return nil, err
		}
		seg.SetStarTreeData(data)
	}
	return seg.Marshal()
}

// ClusterOptions sizes an embedded cluster.
type ClusterOptions struct {
	// Name of the cluster (defaults to "pinot").
	Name string
	// Controllers, Servers, Brokers, Minions count the instances of each
	// component (defaults: 1 controller, 1 server, 1 broker, 0 minions).
	Controllers int
	Servers     int
	Brokers     int
	Minions     int
}

// Cluster is an embedded multi-node Pinot deployment running in-process.
type Cluster struct {
	inner *cluster.Cluster
}

// NewCluster starts an embedded cluster.
func NewCluster(opts ClusterOptions) (*Cluster, error) {
	inner, err := cluster.NewLocal(cluster.Options{
		Name:        opts.Name,
		Controllers: opts.Controllers,
		Servers:     opts.Servers,
		Brokers:     opts.Brokers,
		Minions:     opts.Minions,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner}, nil
}

// Shutdown stops every component.
func (c *Cluster) Shutdown() { c.inner.Shutdown() }

// Internal exposes the underlying cluster for advanced wiring (HTTP
// frontends, benchmarks).
func (c *Cluster) Internal() *cluster.Cluster { return c.inner }

// AddTable admits a table.
func (c *Cluster) AddTable(cfg *TableConfig) error { return c.inner.AddTable(cfg) }

// CreateStreamTopic creates a partitioned event topic for realtime tables.
func (c *Cluster) CreateStreamTopic(name string, partitions int) error {
	_, err := c.inner.Streams.CreateTopic(name, partitions)
	return err
}

// Produce appends a JSON-encoded event to a stream topic, partitioned by
// key.
func (c *Cluster) Produce(topic string, key, value []byte) error {
	th, err := c.inner.Streams.Topic(topic)
	if err != nil {
		return err
	}
	th.Produce(key, value)
	return nil
}

// UploadSegment pushes a segment blob to a table resource (e.g.
// "events_OFFLINE").
func (c *Cluster) UploadSegment(resource string, blob []byte) error {
	return c.inner.UploadSegment(resource, blob)
}

// WaitForOnline blocks until count segments of the resource are queryable.
func (c *Cluster) WaitForOnline(resource string, count int, timeout time.Duration) error {
	return c.inner.WaitForOnline(resource, count, timeout)
}

// WaitForConsuming blocks until count consuming segments are live.
func (c *Cluster) WaitForConsuming(resource string, count int, timeout time.Duration) error {
	return c.inner.WaitForConsuming(resource, count, timeout)
}

// Query executes PQL through a broker.
func (c *Cluster) Query(ctx context.Context, pql string) (*Response, error) {
	return c.inner.Execute(ctx, pql)
}

// QueryAs executes PQL charging the given tenant's token bucket.
func (c *Cluster) QueryAs(ctx context.Context, pql, tenant string) (*Response, error) {
	return c.inner.Broker().Execute(ctx, pql, tenant)
}

// ScheduleTask enqueues a minion task (purge, reindex) on the lead
// controller.
func (c *Cluster) ScheduleTask(t *Task) error {
	leader, err := c.inner.WaitForLeader(5 * time.Second)
	if err != nil {
		return err
	}
	return leader.ScheduleTask(t)
}

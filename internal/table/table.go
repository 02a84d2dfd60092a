// Package table defines the shared table-level configuration and segment
// metadata types used by controllers, servers and brokers: table configs,
// OFFLINE/REALTIME resource naming, and the segment metadata records kept in
// the metadata store's property store.
package table

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"pinot/internal/expr"
	"pinot/internal/pql"
	"pinot/internal/segment"
	"pinot/internal/startree"
)

// Type distinguishes offline (batch-pushed) from realtime (stream-consumed)
// tables. A hybrid table is simply both types sharing a name (paper 3.3.3).
type Type string

// Table types.
const (
	Offline  Type = "OFFLINE"
	Realtime Type = "REALTIME"
)

// ResourceName returns the Helix resource for a table+type, e.g.
// "events_OFFLINE".
func ResourceName(name string, t Type) string { return name + "_" + string(t) }

// ParseResource splits a resource name back into table name and type.
func ParseResource(resource string) (string, Type, error) {
	switch {
	case strings.HasSuffix(resource, "_OFFLINE"):
		return strings.TrimSuffix(resource, "_OFFLINE"), Offline, nil
	case strings.HasSuffix(resource, "_REALTIME"):
		return strings.TrimSuffix(resource, "_REALTIME"), Realtime, nil
	}
	return "", "", fmt.Errorf("table: %q is not a table resource", resource)
}

// Config is a table's configuration, stored in the property store and
// synchronized across the cluster (paper 5.2 keeps these in source control).
type Config struct {
	Name   string          `json:"name"`
	Type   Type            `json:"type"`
	Schema *segment.Schema `json:"schema"`
	// Replicas is the number of copies of each segment.
	Replicas int `json:"replicas"`
	// RetentionUnits garbage-collects segments whose max time is older
	// than (latest time - RetentionUnits). Zero disables retention.
	RetentionUnits int64 `json:"retentionUnits,omitempty"`
	// QuotaBytes caps the table's total (unreplicated) segment bytes.
	// Zero means unlimited.
	QuotaBytes int64 `json:"quotaBytes,omitempty"`
	// SortColumn / InvertedColumns / StarTree configure indexing for
	// segments built by the system (realtime flushes, minion rewrites).
	SortColumn      string           `json:"sortColumn,omitempty"`
	InvertedColumns []string         `json:"invertedColumns,omitempty"`
	StarTree        *startree.Config `json:"starTree,omitempty"`
	// StreamTopic names the stream to consume (realtime tables).
	StreamTopic string `json:"streamTopic,omitempty"`
	// FlushThresholdRows ends a consuming segment after this many rows.
	FlushThresholdRows int `json:"flushThresholdRows,omitempty"`
	// FlushThresholdMillis ends a consuming segment after this much
	// wall-clock time (paper 3.3.6: "Pinot supports flushing segments
	// after a configurable number of records and after a configurable
	// amount of time"). Replicas flushing on local clocks diverge in
	// offsets, which the segment completion protocol reconciles via
	// CATCHUP. Zero disables the time criterion.
	FlushThresholdMillis int64 `json:"flushThresholdMillis,omitempty"`
	// PartitionColumn enables partition-aware routing: data is
	// partitioned by this column with the stream partition function.
	PartitionColumn string `json:"partitionColumn,omitempty"`
	NumPartitions   int    `json:"numPartitions,omitempty"`
	// ServerTenant tags which server instances may host this table.
	// Empty means any server.
	ServerTenant string `json:"serverTenant,omitempty"`
	// BrokerTenant tags which brokers serve this table (informational).
	BrokerTenant string `json:"brokerTenant,omitempty"`
	// DerivedColumns are ingestion-time transforms: each expression is
	// evaluated per row as it is consumed and materialized as a real
	// column in the segment, so queries read it like any stored column
	// (no per-query evaluation cost). Segments built before a derived
	// column was added serve its default value via schema evolution.
	DerivedColumns []DerivedColumn `json:"derivedColumns,omitempty"`
}

// DerivedColumn is one ingestion-time transform: a PQL scalar expression
// over the base schema's single-value columns, stored under Name with the
// declared type.
type DerivedColumn struct {
	Name string           `json:"name"`
	Expr string           `json:"expr"`
	Type segment.DataType `json:"type"`
}

// FieldSpec is the schema field a derived column materializes as: a
// single-value dimension (dictionary-encoded, groupable, filterable).
func (d DerivedColumn) FieldSpec() segment.FieldSpec {
	return segment.FieldSpec{Name: d.Name, Type: d.Type, Kind: segment.Dimension, SingleValue: true}
}

// Parsed returns the canonicalized expression AST.
func (d DerivedColumn) Parsed() (pql.Expr, error) { return pql.ParseExpr(d.Expr) }

// Validate checks internal consistency.
func (c *Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("table: empty table name")
	}
	if strings.ContainsAny(c.Name, "_/ ") {
		// Underscores are reserved for the resource/segment naming
		// convention.
		return fmt.Errorf("table: name %q must not contain '_', '/' or spaces", c.Name)
	}
	if c.Type != Offline && c.Type != Realtime {
		return fmt.Errorf("table: %s: invalid type %q", c.Name, c.Type)
	}
	if c.Schema == nil {
		return fmt.Errorf("table: %s: missing schema", c.Name)
	}
	if c.Replicas <= 0 {
		return fmt.Errorf("table: %s: replicas must be positive", c.Name)
	}
	if c.Type == Realtime {
		if c.StreamTopic == "" {
			return fmt.Errorf("table: %s: realtime table needs a stream topic", c.Name)
		}
		if c.FlushThresholdRows <= 0 && c.FlushThresholdMillis <= 0 {
			return fmt.Errorf("table: %s: realtime table needs a row or time flush threshold", c.Name)
		}
		if c.FlushThresholdRows < 0 || c.FlushThresholdMillis < 0 {
			return fmt.Errorf("table: %s: negative flush threshold", c.Name)
		}
	}
	if c.RetentionUnits < 0 || c.QuotaBytes < 0 {
		return fmt.Errorf("table: %s: negative retention or quota", c.Name)
	}
	if c.PartitionColumn != "" {
		if _, ok := c.Schema.Field(c.PartitionColumn); !ok {
			return fmt.Errorf("table: %s: partition column %q not in schema", c.Name, c.PartitionColumn)
		}
		if c.NumPartitions <= 0 {
			return fmt.Errorf("table: %s: partition column set without numPartitions", c.Name)
		}
	}
	if c.RetentionUnits > 0 && c.Schema.TimeColumn() == "" {
		return fmt.Errorf("table: %s: retention requires a time column", c.Name)
	}
	if err := c.validateDerived(); err != nil {
		return err
	}
	return nil
}

// validateDerived checks every derived column: the expression parses, it
// references only single-value base-schema columns (derived columns may not
// chain), and its inferred type matches the declared storage type.
func (c *Config) validateDerived() error {
	seen := make(map[string]bool, len(c.DerivedColumns))
	for _, d := range c.DerivedColumns {
		if d.Name == "" {
			return fmt.Errorf("table: %s: derived column with empty name", c.Name)
		}
		if _, ok := c.Schema.Field(d.Name); ok {
			return fmt.Errorf("table: %s: derived column %q collides with a schema column", c.Name, d.Name)
		}
		if seen[d.Name] {
			return fmt.Errorf("table: %s: duplicate derived column %q", c.Name, d.Name)
		}
		seen[d.Name] = true
		e, err := d.Parsed()
		if err != nil {
			return fmt.Errorf("table: %s: derived column %q: %w", c.Name, d.Name, err)
		}
		for _, col := range pql.ExprColumns(e) {
			f, ok := c.Schema.Field(col)
			if !ok {
				return fmt.Errorf("table: %s: derived column %q references unknown column %q", c.Name, d.Name, col)
			}
			if !f.SingleValue {
				return fmt.Errorf("table: %s: derived column %q references multi-value column %q", c.Name, d.Name, col)
			}
		}
		k, err := c.CompileDerived(e)
		if err != nil {
			return fmt.Errorf("table: %s: derived column %q: %w", c.Name, d.Name, err)
		}
		if want := expr.KindOf(d.Type); k.Kind != want {
			return fmt.Errorf("table: %s: derived column %q: expression is %s but declared type %s is %s",
				c.Name, d.Name, k.Kind, d.Type, want)
		}
	}
	return nil
}

// CompileDerived compiles a derived column's expression against the base
// schema, whose fields are the only ones it may read.
func (c *Config) CompileDerived(e pql.Expr) (*expr.Kernel, error) {
	return expr.Compile(e, func(name string) (pql.Kind, bool) {
		f, ok := c.Schema.Field(name)
		if !ok {
			return 0, false
		}
		return expr.KindOf(f.Type), true
	})
}

// EffectiveSchema is the base schema plus the derived columns' fields — the
// schema consuming segments are built against and queries plan against.
func (c *Config) EffectiveSchema() (*segment.Schema, error) {
	if len(c.DerivedColumns) == 0 {
		return c.Schema, nil
	}
	fields := append([]segment.FieldSpec(nil), c.Schema.Fields...)
	for _, d := range c.DerivedColumns {
		fields = append(fields, d.FieldSpec())
	}
	return segment.NewSchema(c.Schema.Name, fields)
}

// Resource returns the table's Helix resource name.
func (c *Config) Resource() string { return ResourceName(c.Name, c.Type) }

// IndexConfig converts the table's index settings to the segment builder
// form.
func (c *Config) IndexConfig() segment.IndexConfig {
	return segment.IndexConfig{SortColumn: c.SortColumn, InvertedColumns: c.InvertedColumns}
}

// SegmentStatus tracks a segment's lifecycle in the metadata store.
type SegmentStatus string

// Segment statuses.
const (
	// StatusInProgress marks a realtime segment still consuming.
	StatusInProgress SegmentStatus = "IN_PROGRESS"
	// StatusDone marks a completed, durable segment.
	StatusDone SegmentStatus = "DONE"
)

// SegmentMeta is the per-segment record in the property store (what Pinot
// calls SegmentZKMetadata).
type SegmentMeta struct {
	Name      string        `json:"name"`
	Resource  string        `json:"resource"`
	Status    SegmentStatus `json:"status"`
	NumDocs   int           `json:"numDocs"`
	SizeBytes int64         `json:"sizeBytes"`
	MinTime   int64         `json:"minTime"`
	MaxTime   int64         `json:"maxTime"`
	// ObjectKey locates the segment blob in the object store ("" while
	// consuming).
	ObjectKey string `json:"objectKey,omitempty"`
	// CRC distinguishes segment versions for replace/refresh.
	CRC uint32 `json:"crc,omitempty"`
	// Partition is the data partition this segment holds (-1 if
	// unpartitioned).
	Partition int `json:"partition"`
	// StartOffset/EndOffset delimit a realtime segment's stream range.
	// EndOffset is -1 while consuming.
	StartOffset int64 `json:"startOffset,omitempty"`
	EndOffset   int64 `json:"endOffset,omitempty"`
}

// Marshal encodes the metadata as JSON.
func (m *SegmentMeta) Marshal() []byte {
	data, _ := json.Marshal(m)
	return data
}

// UnmarshalSegmentMeta decodes segment metadata.
func UnmarshalSegmentMeta(data []byte) (*SegmentMeta, error) {
	var m SegmentMeta
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// ConsumingSegmentName builds the realtime segment naming convention
// <table>__<partition>__<sequence>.
func ConsumingSegmentName(tableName string, partition, sequence int) string {
	return fmt.Sprintf("%s__%d__%d", tableName, partition, sequence)
}

// ParseConsumingSegmentName extracts partition and sequence from a realtime
// segment name.
func ParseConsumingSegmentName(name string) (tableName string, partition, sequence int, err error) {
	parts := strings.Split(name, "__")
	if len(parts) != 3 {
		return "", 0, 0, fmt.Errorf("table: %q is not a realtime segment name", name)
	}
	p, err := strconv.Atoi(parts[1])
	if err != nil {
		return "", 0, 0, fmt.Errorf("table: bad partition in %q", name)
	}
	s, err := strconv.Atoi(parts[2])
	if err != nil {
		return "", 0, 0, fmt.Errorf("table: bad sequence in %q", name)
	}
	return parts[0], p, s, nil
}

// SegmentObjectKey is the object-store key for a segment blob.
func SegmentObjectKey(resource, segmentName string, crc uint32) string {
	return fmt.Sprintf("segments/%s/%s/%d", resource, segmentName, crc)
}

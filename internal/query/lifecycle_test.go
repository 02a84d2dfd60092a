// Query-lifecycle tests: cooperative cancellation must stop an in-flight
// segment within one block of ctx.Done(), and every Run result must carry the query ID, phase trace and resource accounting.
package query_test

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pinot/internal/qctx"
	"pinot/internal/query"
	"pinot/internal/segment"
)

// tripwire cancels a context once a wrapped column has served fireAt values,
// modelling a deadline that fires mid-scan.
type tripwire struct {
	fireAt int64
	reads  atomic.Int64
	cancel context.CancelFunc
}

func (tw *tripwire) note(n int) {
	if tw.reads.Add(int64(n)) >= tw.fireAt {
		tw.cancel()
	}
}

type tripColumn struct {
	segment.ColumnReader
	tw *tripwire
}

func (c *tripColumn) Long(doc int) int64 {
	c.tw.note(1)
	return c.ColumnReader.Long(doc)
}

func (c *tripColumn) Longs(docs []int, dst []int64) {
	c.tw.note(len(docs))
	c.ColumnReader.Longs(docs, dst)
}

func (c *tripColumn) Double(doc int) float64 {
	c.tw.note(1)
	return c.ColumnReader.Double(doc)
}

func (c *tripColumn) Doubles(docs []int, dst []float64) {
	c.tw.note(len(docs))
	c.ColumnReader.Doubles(docs, dst)
}

type tripSegment struct {
	segment.Reader
	col string
	tw  *tripwire
}

func (s *tripSegment) Column(name string) segment.ColumnReader {
	c := s.Reader.Column(name)
	if c == nil || name != s.col {
		return c
	}
	return &tripColumn{ColumnReader: c, tw: s.tw}
}

func lifecycleSchema(t *testing.T) *segment.Schema {
	t.Helper()
	schema, err := segment.NewSchema("lifetbl", []segment.FieldSpec{
		{Name: "bucket", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "hits", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
		{Name: "day", Type: segment.TypeLong, Kind: segment.Time, SingleValue: true, TimeUnit: "DAYS"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

func lifecycleSegment(t *testing.T, schema *segment.Schema, name string, rows int, bucket func(i int) int64) segment.Reader {
	t.Helper()
	b, err := segment.NewBuilder("lifetbl", name, schema, segment.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := b.Add(segment.Row{bucket(i), int64(i % 97), int64(17000 + i%7)}); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

// TestMidScanCancellation proves the cooperative-cancellation bound: when the
// context is cancelled after fireAt column reads, execution stops within one
// block, the query still returns a partial (not failed) response, and the
// cancelled segment is named in the timeout exception.
func TestMidScanCancellation(t *testing.T) {
	const (
		rows   = 8000
		fireAt = 1500
	)
	schema := lifecycleSchema(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tw := &tripwire{fireAt: fireAt, cancel: cancel}
	tripped := &tripSegment{
		Reader: lifecycleSegment(t, schema, "trip0", rows, func(i int) int64 { return int64(i % 5) }),
		col:    "hits",
		tw:     tw,
	}
	segs := []query.IndexedSegment{{Seg: tripped}}
	res, err := query.Run(ctx, "SELECT sum(hits) FROM lifetbl", segs, schema, query.Options{DisableMetadataPlans: true})
	if err != nil {
		t.Fatalf("cancellation must degrade, not fail: %v", err)
	}
	if !res.Partial || len(res.Exceptions) == 0 {
		t.Fatalf("want partial result with exceptions, got partial=%v exceptions=%v", res.Partial, res.Exceptions)
	}
	exc := strings.Join(res.Exceptions, "\n")
	if !strings.Contains(exc, "cancelled mid-scan") || !strings.Contains(exc, "trip0") {
		t.Fatalf("exception must name the cancelled segment, got %q", exc)
	}
	if got := tw.reads.Load(); got > fireAt+query.BlockSize {
		t.Fatalf("read %d values after cancel at %d; want stop within one %d-doc block", got, fireAt, query.BlockSize)
	}
	if got := tw.reads.Load(); got < fireAt {
		t.Fatalf("tripwire never fired: %d reads", got)
	}
}

// TestRunStampsLifecycleFields: every Run result — the single-node / Druid
// entry point included — carries a query ID, a phase trace whose ledger sums
// to no more than the measured wall clock, and scan accounting.
func TestRunStampsLifecycleFields(t *testing.T) {
	schema := lifecycleSchema(t)
	seg := lifecycleSegment(t, schema, "trace0", 3000, func(i int) int64 { return int64(i % 11) })
	segs := []query.IndexedSegment{{Seg: seg}}

	start := time.Now()
	res, err := query.Run(context.Background(), "SELECT sum(hits) FROM lifetbl WHERE bucket >= 3", segs, schema, query.Options{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueryID == "" {
		t.Fatal("missing query ID")
	}
	for _, p := range []qctx.Phase{qctx.PhaseParse, qctx.PhaseExecute, qctx.PhaseReduce} {
		if res.Trace[p] <= 0 {
			t.Fatalf("trace missing phase %q: %v", p, res.Trace)
		}
	}
	if sum := res.Trace.WallSum(); sum > elapsed {
		t.Fatalf("trace ledger %v exceeds wall clock %v", sum, elapsed)
	}
	if res.Stats.NumDocsScanned == 0 || res.Stats.NumEntriesScanned == 0 {
		t.Fatalf("scan accounting missing: %+v", res.Stats)
	}
}

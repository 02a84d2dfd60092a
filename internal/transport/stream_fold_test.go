package transport

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"pinot/internal/pql"
	"pinot/internal/query"
	"pinot/internal/segment"
	"pinot/internal/wire"
	"pinot/internal/workload"
)

// TestStreamedFramesFoldLikeTheEngine: a seeded query set runs through
// Engine.Execute over a few segments, and the folded intermediate is written
// as a server's response — its one segment frame and the trailer — to the
// frame layer, read back and decoded. Both finalize to the same rows and the
// same Stats: what a broker reads off the wire is what the server's engine
// folded in memory.
func TestStreamedFramesFoldLikeTheEngine(t *testing.T) {
	anomaly := workload.Anomaly(workload.SizeConfig{Segments: 3, RowsPerSegment: 1500, Seed: 11})
	wvmp := workload.ShareAnalytics(workload.SizeConfig{Segments: 3, RowsPerSegment: 1500, Seed: 7})
	impressions := workload.Impressions(workload.SizeConfig{Segments: 3, RowsPerSegment: 1500, Seed: 5}, 4)
	for _, w := range []struct {
		d    *workload.Dataset
		seed int64
		v    workload.Variant
	}{
		{anomaly, 1234, workload.Variant{Name: "noindex"}},
		{anomaly, 1234, workload.Variant{Name: "startree", StarTree: anomaly.StarTree}},
		{wvmp, 4321, workload.Variant{Name: "sorted", Index: segment.IndexConfig{SortColumn: "vieweeId"}}},
		{impressions, 99, workload.Variant{Name: "inverted", Index: segment.IndexConfig{InvertedColumns: impressions.InvertedColumns}}},
	} {
		segs, _, err := w.d.BuildIndexed(w.v)
		if err != nil {
			t.Fatal(err)
		}
		answered := 0
		for i, text := range w.d.Queries(40, w.seed) {
			q, err := pql.Parse(text)
			if err != nil {
				t.Fatalf("%s/%s query %d %q: %v", w.d.Name, w.v.Name, i, text, err)
			}
			mem, wire, err := foldBothWays(q, segs, w.d.Schema)
			if err != nil {
				t.Fatalf("%s/%s query %d %q: %v", w.d.Name, w.v.Name, i, text, err)
			}
			if !reflect.DeepEqual(mem.Columns, wire.Columns) || !reflect.DeepEqual(mem.Rows, wire.Rows) || mem.Stats != wire.Stats {
				t.Fatalf("%s/%s query %d %q: the frames fold differently\n  memory: %v %v %+v\n  frames: %v %v %+v",
					w.d.Name, w.v.Name, i, text, mem.Columns, mem.Rows, mem.Stats, wire.Columns, wire.Rows, wire.Stats)
			}
			if len(mem.Rows) > 0 && mem.Stats.NumSegmentsQueried > 1 {
				answered++
			}
		}
		// A set of empty answers would agree trivially.
		if answered < 20 {
			t.Fatalf("%s/%s: only %d of 40 queries returned rows over several segments", w.d.Name, w.v.Name, answered)
		}
		t.Logf("%s/%s: %d of 40 queries returned rows over several segments", w.d.Name, w.v.Name, answered)
	}
}

// foldBothWays runs q once and returns its result finalized in memory and
// finalized from the encoded response.
func foldBothWays(q *pql.Query, segs []query.IndexedSegment, schema *segment.Schema) (mem, fromFrames *query.Result, err error) {
	merged, exceptions, err := (&query.Engine{}).Execute(context.Background(), q, segs, schema)
	if err != nil {
		return nil, nil, err
	}
	var stream bytes.Buffer
	if _, err := sendFrame(&stream, FrameSegment, func(e *wire.Encoder) { encodeSegmentFrame(e, 0, merged) }); err != nil {
		return nil, nil, err
	}
	if _, err := sendFrame(&stream, FrameFinal, func(e *wire.Encoder) { encodeFinalFrame(e, &FinalFrame{Frames: 1, Exceptions: exceptions}) }); err != nil {
		return nil, nil, err
	}

	var fr wire.FrameReader
	var decoded *SegmentFrame
	for _, want := range []uint8{FrameSegment, FrameFinal} {
		typ, payload, err := fr.Read(&stream, &dataPlane)
		if err != nil {
			return nil, nil, err
		}
		if typ != want {
			return nil, nil, fmt.Errorf("frame type %d in a response, want %d", typ, want)
		}
		if typ == FrameSegment {
			decoded, err = DecodeSegmentFrame(payload)
		} else {
			_, err = DecodeFinalFrame(payload)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return merged.Finalize(q), decoded.Result.Finalize(q), nil
}

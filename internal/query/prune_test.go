package query

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pinot/internal/pql"
	"pinot/internal/segment"
)

// pruneCorpus builds segments with disjoint per-segment ranges so every
// prune outcome is reachable: segment i holds days [17000+10i, 17000+10i+9],
// categories cat(3i)..cat(3i+2), buckets [100i, 100i+99] and tag(i)/tag(i+1)
// multi-value tags.
func pruneCorpusSchema(t testing.TB) *segment.Schema {
	t.Helper()
	s, err := segment.NewSchema("ptbl", []segment.FieldSpec{
		{Name: "category", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "bucket", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "tags", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: false},
		{Name: "hits", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
		{Name: "day", Type: segment.TypeLong, Kind: segment.Time, SingleValue: true, TimeUnit: "DAYS"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func pruneCorpus(t testing.TB, nSegs, rowsPer int) []IndexedSegment {
	t.Helper()
	schema := pruneCorpusSchema(t)
	r := rand.New(rand.NewSource(42))
	segs := make([]IndexedSegment, 0, nSegs)
	for si := 0; si < nSegs; si++ {
		b, err := segment.NewBuilder("ptbl", fmt.Sprintf("ptbl_%d", si), schema, segment.IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rowsPer; i++ {
			row := segment.Row{
				fmt.Sprintf("cat%d", 3*si+r.Intn(3)),
				int64(100*si + r.Intn(100)),
				[]string{fmt.Sprintf("tag%d", si), fmt.Sprintf("tag%d", si+1)},
				int64(r.Intn(1000)),
				int64(17000 + 10*si + r.Intn(10)),
			}
			if err := b.Add(row); err != nil {
				t.Fatal(err)
			}
		}
		seg, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, IndexedSegment{Seg: seg})
	}
	return segs
}

// pruneFilters samples WHERE clauses spanning every leaf shape and
// combinator the evaluator handles.
func pruneFilters(r *rand.Rand, n int) []string {
	leaf := func() string {
		switch r.Intn(10) {
		case 0:
			return fmt.Sprintf("category = 'cat%d'", r.Intn(15))
		case 1:
			return fmt.Sprintf("category != 'cat%d'", r.Intn(15))
		case 2:
			return fmt.Sprintf("bucket BETWEEN %d AND %d", r.Intn(500)-50, r.Intn(500))
		case 3:
			return fmt.Sprintf("bucket %s %d", []string{"<", "<=", ">", ">="}[r.Intn(4)], r.Intn(450)-25)
		case 4:
			return fmt.Sprintf("tags = 'tag%d'", r.Intn(6))
		case 5:
			return fmt.Sprintf("tags != 'tag%d'", r.Intn(6))
		case 6:
			return fmt.Sprintf("bucket IN (%d, %d, %d)", r.Intn(450), r.Intn(450), r.Intn(450))
		case 7:
			return fmt.Sprintf("NOT category IN ('cat%d', 'cat%d')", r.Intn(15), r.Intn(15))
		case 8:
			return fmt.Sprintf("day BETWEEN %d AND %d", 17000+r.Intn(45), 17000+r.Intn(45))
		default:
			return fmt.Sprintf("hits <= %d", r.Intn(1100))
		}
	}
	out := make([]string, n)
	for i := range out {
		switch r.Intn(4) {
		case 0:
			out[i] = leaf()
		case 1:
			out[i] = leaf() + " AND " + leaf()
		case 2:
			out[i] = leaf() + " OR " + leaf()
		default:
			out[i] = "NOT " + leaf()
		}
	}
	return out
}

func parseFilter(t testing.TB, where string) pql.Predicate {
	t.Helper()
	q, err := pql.Parse("SELECT count(*) FROM ptbl WHERE " + where)
	if err != nil {
		t.Fatalf("parse %q: %v", where, err)
	}
	return q.Filter
}

// TestPruneOutcomesSound is the property test: whenever the evaluator claims
// matchNone for a segment, executing the filter on that segment (pruning
// off) must match zero documents; matchAll must match every document.
// matchSome claims nothing and is not checked.
func TestPruneOutcomesSound(t *testing.T) {
	segs := pruneCorpus(t, 4, 400)
	r := rand.New(rand.NewSource(7))
	filters := pruneFilters(r, 120)
	off := Options{DisablePruning: true}
	sawNone, sawAll := 0, 0
	for _, where := range filters {
		pred := parseFilter(t, where)
		for _, is := range segs {
			zr, ok := is.Seg.(zoneReader)
			if !ok {
				t.Fatal("immutable segment must expose column metadata")
			}
			outcome := pruneEvalExpr(zr, pred, nil)
			if outcome == matchSome {
				continue
			}
			res := runPQL(t, []IndexedSegment{is},
				"SELECT count(*) FROM ptbl WHERE "+where, off)
			got := res.Rows[0][0].(int64)
			switch outcome {
			case matchNone:
				sawNone++
				if got != 0 {
					t.Fatalf("%s on %s: pruned matchNone but %d docs match", where, is.Seg.Name(), got)
				}
			case matchAll:
				sawAll++
				if got != int64(is.Seg.NumDocs()) {
					t.Fatalf("%s on %s: matchAll but %d of %d docs match", where, is.Seg.Name(), got, is.Seg.NumDocs())
				}
			}
		}
	}
	// The corpus is built so both provable outcomes actually occur; a
	// regression that degrades everything to matchSome must not pass.
	if sawNone == 0 || sawAll == 0 {
		t.Fatalf("prune outcomes never proved: none=%d all=%d", sawNone, sawAll)
	}
}

// TestPruneAccountingIdentity: every candidate segment lands in exactly one
// of {PrunedByServer, PrunedByValue, Matched}, and pruned segments still
// count as queried with their docs in TotalDocs.
func TestPruneAccountingIdentity(t *testing.T) {
	segs := pruneCorpus(t, 6, 300)
	schema := pruneCorpusSchema(t)
	r := rand.New(rand.NewSource(9))
	var totalDocs int64
	for _, is := range segs {
		totalDocs += int64(is.Seg.NumDocs())
	}
	for _, where := range pruneFilters(r, 60) {
		res, err := Run(context.Background(), "SELECT count(*) FROM ptbl WHERE "+where, segs, schema, Options{})
		if err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		s := res.Stats
		if s.SegmentsPrunedByServer+s.SegmentsPrunedByValue+s.SegmentsMatched != len(segs) {
			t.Fatalf("%s: accounting broken: %+v over %d segments", where, s, len(segs))
		}
		if s.NumSegmentsQueried != len(segs) {
			t.Fatalf("%s: pruned segments dropped from NumSegmentsQueried: %+v", where, s)
		}
		if s.TotalDocs != totalDocs {
			t.Fatalf("%s: pruned segments dropped from TotalDocs: %+v", where, s)
		}
		if s.SegmentsPrunedByBroker != 0 {
			t.Fatalf("%s: broker counter must stay zero at the engine: %+v", where, s)
		}
	}
}

// TestPruneTimeRangeTier: a conjunctive time filter that misses a segment's
// day range prunes it in the server tier, before zone-map evaluation.
func TestPruneTimeRangeTier(t *testing.T) {
	segs := pruneCorpus(t, 4, 200)
	schema := pruneCorpusSchema(t)
	res, err := Run(context.Background(),
		"SELECT count(*) FROM ptbl WHERE day BETWEEN 17000 AND 17009 AND hits >= 0",
		segs, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SegmentsPrunedByServer != 3 {
		t.Fatalf("time tier pruned %d segments, want 3: %+v", res.Stats.SegmentsPrunedByServer, res.Stats)
	}
	if res.Stats.SegmentsMatched != 1 {
		t.Fatalf("matched %d segments, want 1: %+v", res.Stats.SegmentsMatched, res.Stats)
	}
	// Without a table schema the engine cannot identify the time column;
	// the same query then prunes via zone maps instead — same outcome,
	// different tier.
	res2, err := Run(context.Background(),
		"SELECT count(*) FROM ptbl WHERE day BETWEEN 17000 AND 17009 AND hits >= 0",
		segs, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.SegmentsPrunedByValue != 3 || res2.Stats.SegmentsPrunedByServer != 0 {
		t.Fatalf("value tier fallback: %+v", res2.Stats)
	}
}

// TestPruneMatchAllShortCircuit: a filter that provably matches every
// document of a segment is elided, so COUNT/MIN/MAX aggregations fall into
// the metadata-only plan instead of scanning.
func TestPruneMatchAllShortCircuit(t *testing.T) {
	segs := pruneCorpus(t, 3, 250)
	schema := pruneCorpusSchema(t)
	// Every segment's buckets lie inside [0, 10000): provably matches all.
	q := "SELECT count(*), min(hits), max(hits) FROM ptbl WHERE bucket BETWEEN 0 AND 10000"
	on, err := Run(context.Background(), q, segs, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if on.Stats.MetadataOnlySegments != len(segs) {
		t.Fatalf("metadata short-circuit did not fire: %+v", on.Stats)
	}
	if on.Stats.NumEntriesScanned != 0 || on.Stats.NumDocsScanned != 0 {
		t.Fatalf("metadata answer still scanned: %+v", on.Stats)
	}
	off, err := Run(context.Background(), q, segs, schema, Options{DisablePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.Stats.MetadataOnlySegments != 0 {
		t.Fatalf("pruning off must not elide filters: %+v", off.Stats)
	}
	for i := range on.Rows[0] {
		if on.Rows[0][i] != off.Rows[0][i] {
			t.Fatalf("metadata answer diverges at %d: %v vs %v", i, on.Rows[0], off.Rows[0])
		}
	}
}

// TestPruneDisabledZeroCounters: with pruning off, no pruning counter moves
// and no segment is skipped.
func TestPruneDisabledZeroCounters(t *testing.T) {
	segs := pruneCorpus(t, 4, 100)
	schema := pruneCorpusSchema(t)
	res, err := Run(context.Background(),
		"SELECT count(*) FROM ptbl WHERE day BETWEEN 17000 AND 17004",
		segs, schema, Options{DisablePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.SegmentsPrunedByBroker != 0 || s.SegmentsPrunedByServer != 0 || s.SegmentsPrunedByValue != 0 || s.SegmentsMatched != 0 {
		t.Fatalf("pruning counters moved while disabled: %+v", s)
	}
	if s.NumSegmentsQueried != len(segs) {
		t.Fatalf("segments skipped while pruning disabled: %+v", s)
	}
}

// TestPruneMutableSegmentsNeverPruned: consuming segments carry no immutable
// metadata and must always execute.
func TestPruneMutableSegmentsNeverPruned(t *testing.T) {
	schema := pruneCorpusSchema(t)
	ms, err := segment.NewMutableSegment("ptbl", "ptbl_rt", schema, segment.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		err := ms.Add(segment.Row{"cat0", int64(i), []string{"tag0"}, int64(i), int64(17000 + i%5)})
		if err != nil {
			t.Fatal(err)
		}
	}
	segs := []IndexedSegment{{Seg: ms.Snapshot()}}
	// The filter misses every row, but a mutable segment cannot prove it.
	res, err := Run(context.Background(),
		"SELECT count(*) FROM ptbl WHERE bucket > 1000000", segs, schema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SegmentsMatched != 1 || res.Stats.SegmentsPrunedByValue != 0 {
		t.Fatalf("mutable segment was pruned: %+v", res.Stats)
	}
}

// TestPruneCoercionFailureSurfacesError: an uncoercible literal must degrade
// to matchSome so pruning on and off surface the same execution error.
func TestPruneCoercionFailureSurfacesError(t *testing.T) {
	segs := pruneCorpus(t, 2, 50)
	schema := pruneCorpusSchema(t)
	q := "SELECT count(*) FROM ptbl WHERE category = 3"
	_, errOn := Run(context.Background(), q, segs, schema, Options{})
	_, errOff := Run(context.Background(), q, segs, schema, Options{DisablePruning: true})
	if errOn == nil || errOff == nil {
		t.Fatalf("coercion error lost: on=%v off=%v", errOn, errOff)
	}
	if errOn.Error() != errOff.Error() {
		t.Fatalf("error text diverges: on=%v off=%v", errOn, errOff)
	}
}

// TestMetadataAnswerRoundTrip: a reloaded (Marshal→Unmarshal) segment must
// give the same metadata-only COUNT/MIN/MAX answers as the fresh build — the
// typed zone maps, not the stringified MinValue/MaxValue, are what survives.
func TestMetadataAnswerRoundTrip(t *testing.T) {
	segs := pruneCorpus(t, 2, 300)
	schema := pruneCorpusSchema(t)
	reloaded := make([]IndexedSegment, len(segs))
	for i, is := range segs {
		blob, err := is.Seg.(*segment.Segment).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		back, err := segment.Unmarshal(blob)
		if err != nil {
			t.Fatal(err)
		}
		reloaded[i] = IndexedSegment{Seg: back}
	}
	for _, q := range []string{
		"SELECT count(*), min(hits), max(hits) FROM ptbl",
		"SELECT min(hits), max(hits) FROM ptbl WHERE bucket >= 0",
	} {
		fresh, err := Run(context.Background(), q, segs, schema, Options{})
		if err != nil {
			t.Fatal(err)
		}
		again, err := Run(context.Background(), q, reloaded, schema, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Stats.MetadataOnlySegments != len(segs) || again.Stats.MetadataOnlySegments != len(segs) {
			t.Fatalf("%s: metadata plan did not fire: fresh %+v reloaded %+v", q, fresh.Stats, again.Stats)
		}
		for i := range fresh.Rows[0] {
			if fresh.Rows[0][i] != again.Rows[0][i] {
				t.Fatalf("%s: reloaded answer diverges: %v vs %v", q, fresh.Rows[0], again.Rows[0])
			}
		}
	}
}

func TestTimeBounds(t *testing.T) {
	cases := []struct {
		where  string
		lo, hi int64
		ok     bool
	}{
		{"day BETWEEN 5 AND 9", 5, 9, true},
		{"day >= 5 AND day < 10", 5, 9, true},
		{"day = 7", 7, 7, true},
		{"day > 3 AND bucket = 1", 4, int64(1<<63 - 1), true},
		{"bucket = 1", 0, 0, false},
		{"day = 5 OR day = 9", 0, 0, false}, // OR does not constrain conjunctively
		{"NOT day = 5", 0, 0, false},
	}
	for _, c := range cases {
		pred := parseFilter(t, c.where)
		lo, hi, ok := TimeBounds(pred, "day")
		if ok != c.ok {
			t.Fatalf("%s: ok=%v want %v", c.where, ok, c.ok)
		}
		if ok && (lo != c.lo || hi != c.hi) {
			t.Fatalf("%s: [%d, %d], want [%d, %d]", c.where, lo, hi, c.lo, c.hi)
		}
	}
}

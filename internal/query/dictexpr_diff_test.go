// Differential test for dictionary-space expression execution: every
// dict-eligible (and near-eligible) query must produce byte-identical rows
// whether expressions are planned into dictionary space (the default, with a
// cross-query memo cache), forced onto the compiled-kernel row path
// (DisableDictExpr), or forced all the way to the per-row interpreter
// (DisableDictExpr + DisableExprCompile). Stats may differ only where the
// contract allows: DictExprSegments, and scan counters where the plan
// legitimately changes rung (a pruned-to-empty segment scans nothing) — the
// structural counters (segments queried, total docs, the pruning identity)
// must agree, and dictionary space may never scan MORE than the row path.
package query_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"pinot/internal/metrics"
	"pinot/internal/qcache"
	"pinot/internal/query"
	"pinot/internal/segment"
)

// runDictModes runs one query in the three modes and enforces the
// dictionary-space contract. It returns the dict-mode DictExprSegments count
// so the caller can assert the suite actually exercised the new path.
func runDictModes(t *testing.T, label, q string, segs []query.IndexedSegment, schema *segment.Schema, cache *qcache.Cache) int {
	t.Helper()
	ctx := context.Background()
	type mode struct {
		name string
		opt  query.Options
	}
	modes := []mode{
		{"dict", query.Options{DictMemoCache: cache}},
		{"rowpath", query.Options{DisableDictExpr: true}},
		{"interp", query.Options{DisableDictExpr: true, DisableExprCompile: true}},
	}
	type outcome struct {
		stats query.Stats
		body  string
		err   error
	}
	outcomes := make([]outcome, len(modes))
	for i, m := range modes {
		res, err := query.Run(ctx, q, segs, schema, m.opt)
		o := outcome{err: err}
		if err == nil {
			o.stats = res.Stats
			res.QueryID, res.Trace = "", nil
			res.Stats = query.Stats{}
			b, merr := json.Marshal(res)
			if merr != nil {
				t.Fatalf("%s: %q: marshal: %v", label, q, merr)
			}
			o.body = string(b)
		}
		outcomes[i] = o
	}
	base := outcomes[0]
	for i := 1; i < len(modes); i++ {
		o := outcomes[i]
		if (o.err == nil) != (base.err == nil) {
			t.Fatalf("%s: %q: error mismatch: %s=%v vs %s=%v", label, q, modes[0].name, base.err, modes[i].name, o.err)
		}
		if o.err != nil {
			if o.err.Error() != base.err.Error() {
				t.Fatalf("%s: %q: error text mismatch:\n%s: %v\n%s: %v", label, q, modes[0].name, base.err, modes[i].name, o.err)
			}
			continue
		}
		if o.body != base.body {
			t.Fatalf("%s: %q: results diverge:\n%s: %s\n%s: %s", label, q, modes[0].name, base.body, modes[i].name, o.body)
		}
	}
	if base.err != nil {
		return 0
	}
	// The two row-path modes must agree on Stats exactly (the established
	// compiled-vs-interpreter contract).
	if outcomes[1].stats != outcomes[2].stats {
		t.Fatalf("%s: %q: row-path stats diverge:\nrowpath: %+v\ninterp: %+v", label, q, outcomes[1].stats, outcomes[2].stats)
	}
	ds, rs := outcomes[0].stats, outcomes[1].stats
	if rs.DictExprSegments != 0 {
		t.Fatalf("%s: %q: DictExprSegments = %d with dictionary space disabled", label, q, rs.DictExprSegments)
	}
	if ds.NumSegmentsQueried != rs.NumSegmentsQueried || ds.TotalDocs != rs.TotalDocs {
		t.Fatalf("%s: %q: structural stats diverge:\ndict: %+v\nrowpath: %+v", label, q, ds, rs)
	}
	dsum := ds.SegmentsPrunedByServer + ds.SegmentsPrunedByValue + ds.SegmentsMatched
	rsum := rs.SegmentsPrunedByServer + rs.SegmentsPrunedByValue + rs.SegmentsMatched
	if dsum != rsum {
		t.Fatalf("%s: %q: pruning identity diverges: dict sums %d, rowpath %d\ndict: %+v\nrowpath: %+v", label, q, dsum, rsum, ds, rs)
	}
	if ds.NumDocsScanned > rs.NumDocsScanned {
		t.Fatalf("%s: %q: dictionary space scanned MORE docs (%d) than the row path (%d)", label, q, ds.NumDocsScanned, rs.NumDocsScanned)
	}
	return ds.DictExprSegments
}

// dictDiffQueries samples queries biased toward dictionary-space-eligible
// shapes over the mixed fixture schema: single-column deterministic
// expressions on the dict-encoded category (string, card 6), bucket (long,
// card 40) and day (long, card 14) columns — probes, memos, group keys and
// aggregate arguments — mixed with ineligible shapes (multi-column, raw
// metrics) so both planners keep seeing each other's traffic.
func dictDiffQueries(r *rand.Rand, n int) []string {
	where := func() string {
		switch r.Intn(12) {
		case 0:
			return fmt.Sprintf(" WHERE upper(category) = 'CAT%d'", r.Intn(7))
		case 1:
			return fmt.Sprintf(" WHERE lower(category) <> 'cat%d'", r.Intn(7))
		case 2:
			// Non-fixed-point target: matches nothing, prunes.
			return fmt.Sprintf(" WHERE upper(category) = 'cat%d'", r.Intn(6))
		case 3:
			return fmt.Sprintf(" WHERE concat(category, '-tail') = 'cat%d-tail'", r.Intn(6))
		case 4:
			return fmt.Sprintf(" WHERE timeBucket(day, %d) = %d", 1+r.Intn(10), 16996+r.Intn(30))
		case 5:
			return fmt.Sprintf(" WHERE bucket * 3 - %d > %d", r.Intn(40), r.Intn(80))
		case 6:
			return fmt.Sprintf(" WHERE abs(bucket - %d) <= %d", r.Intn(40), r.Intn(15))
		case 7:
			return fmt.Sprintf(" WHERE lower(category) = 'cat%d' AND bucket < %d", r.Intn(6), r.Intn(45))
		case 8:
			return fmt.Sprintf(" WHERE upper(category) = 'CAT%d' OR timeBucket(day, 7) = %d", r.Intn(6), 16996+7*r.Intn(3))
		case 9:
			return fmt.Sprintf(" WHERE NOT (concat(category, '%d') = 'cat1%d')", r.Intn(4), r.Intn(4))
		case 10:
			// Multi-column expression: NOT dict-eligible, exercises the
			// fall-through next to eligible leaves.
			return fmt.Sprintf(" WHERE hits + bucket > %d", r.Intn(1000))
		default:
			return ""
		}
	}
	groupBy := func() string {
		switch r.Intn(5) {
		case 0:
			return " GROUP BY lower(category)"
		case 1:
			return fmt.Sprintf(" GROUP BY timeBucket(day, %d)", 1+r.Intn(10))
		case 2:
			return " GROUP BY concat(category, '_sfx')"
		case 3:
			return fmt.Sprintf(" GROUP BY abs(bucket - %d)", r.Intn(40))
		default:
			return fmt.Sprintf(" GROUP BY category, timeBucket(day, %d)", 2+r.Intn(6))
		}
	}
	out := make([]string, n)
	for i := range out {
		switch r.Intn(6) {
		case 0:
			out[i] = fmt.Sprintf("SELECT count(*), sum(hits) FROM difftbl%s", where())
		case 1:
			out[i] = fmt.Sprintf("SELECT min(bucket * %d), max(abs(bucket - %d)) FROM difftbl%s", 1+r.Intn(5), r.Intn(40), where())
		case 2:
			out[i] = fmt.Sprintf("SELECT distinctcount(concat(category, '%d')) FROM difftbl%s", r.Intn(9), where())
		case 3:
			out[i] = fmt.Sprintf("SELECT avg(timeBucket(day, %d)) FROM difftbl%s", 1+r.Intn(8), where())
		case 4:
			out[i] = fmt.Sprintf("SELECT sum(hits) FROM difftbl%s%s TOP %d", where(), groupBy(), 1+r.Intn(12))
		default:
			out[i] = fmt.Sprintf("SELECT count(*) FROM difftbl%s%s TOP %d", where(), groupBy(), 1+r.Intn(10))
		}
	}
	return out
}

func TestDictExprDifferential(t *testing.T) {
	schema := diffSchema(t)
	r := rand.New(rand.NewSource(977))

	build := func(name string, cfg segment.IndexConfig, rows int) query.IndexedSegment {
		b, err := segment.NewBuilder("difftbl", name, schema, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := b.Add(diffRow(r)); err != nil {
				t.Fatal(err)
			}
		}
		seg, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return query.IndexedSegment{Seg: seg}
	}
	segs := []query.IndexedSegment{
		build("ddiff_plain", segment.IndexConfig{}, 2500),
		build("ddiff_inv", segment.IndexConfig{InvertedColumns: []string{"category", "bucket"}}, 2500),
	}
	// A consuming segment: unsorted map dictionaries, never memo-cached,
	// never pruned — dictionary space must still agree with the row path.
	ms, err := segment.NewMutableSegment("difftbl", "ddiff_rt", schema, segment.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1200; i++ {
		if err := ms.Add(diffRow(r)); err != nil {
			t.Fatal(err)
		}
	}
	segs = append(segs, query.IndexedSegment{Seg: ms.Snapshot()})

	// One cache across the whole suite: later queries hit memos earlier
	// queries built, so the differential also covers the cached path.
	cache := qcache.New(qcache.Config{Tier: "dictexpr", Metrics: metrics.NewRegistry()})

	dictSegments := 0
	for _, q := range dictDiffQueries(r, 230) {
		dictSegments += runDictModes(t, "dictdiff", q, segs, schema, cache)
	}

	// Hand-picked edges: type errors (parity includes the error text),
	// Unicode probe targets, constant sides, both ExprCompare orientations,
	// and predicates that collapse to all-match under NOT.
	edge := []string{
		"SELECT count(*) FROM difftbl WHERE lower(category) = 3",
		"SELECT count(*) FROM difftbl WHERE upper(bucket) = 'X'",
		"SELECT count(*) FROM difftbl WHERE abs(category) > 0",
		"SELECT count(*) FROM difftbl WHERE 'CAT1' = upper(category)",
		"SELECT sum(hits) FROM difftbl WHERE lower(category) <> 'no-such-cat'",
		"SELECT count(*) FROM difftbl WHERE NOT (upper(category) = 'CAT9')",
		"SELECT count(*) FROM difftbl WHERE concat(category, '') = category",
		"SELECT count(*) FROM difftbl WHERE timeBucket(day, 1) = day",
		"SELECT sum(hits) FROM difftbl WHERE bucket * 0 = 0",
		"SELECT count(*) FROM difftbl WHERE upper(category) = 'STRASSE'",
		"SELECT sum(hits) FROM difftbl GROUP BY lower(category) TOP 3",
		"SELECT distinctcount(lower(category)) FROM difftbl WHERE upper(category) <> 'CAT0'",
	}
	for _, q := range edge {
		dictSegments += runDictModes(t, "dictdiff/edge", q, segs, schema, cache)
	}

	// The suite must have actually taken the new path, not silently fallen
	// back everywhere: with 3 segments per query and most shapes eligible,
	// hundreds of dictionary-space segments is the floor.
	if dictSegments < 150 {
		t.Fatalf("dictionary space served only %d segment executions across the suite; generator or planner regressed", dictSegments)
	}
}

// Differential test for the expression pipeline: every expression-bearing
// query must produce byte-identical finalized results AND identical Stats
// whether expressions run through compiled block kernels (the default) or
// the sandboxed per-row interpreter (Options.DisableExprCompile), in both
// the vectorized and scalar engines. The pool is seeded-random and spans
// expression aggregation inputs, expression filters (including the batch
// comparison path, which needs both sides compiled) and expression
// group-bys (including the single-long fast path).
package query_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"pinot/internal/query"
	"pinot/internal/segment"
)

// runExprModes runs one query in all four mode combinations and requires
// identical output: compiled/vectorized (default), compiled/scalar,
// interpreted/vectorized and interpreted/scalar.
func runExprModes(t *testing.T, label, q string, segs []query.IndexedSegment, schema *segment.Schema) {
	t.Helper()
	ctx := context.Background()
	type mode struct {
		name string
		opt  query.Options
	}
	modes := []mode{
		{"compiled/vec", query.Options{}},
		{"compiled/scalar", query.Options{DisableVectorization: true}},
		{"interp/vec", query.Options{DisableExprCompile: true}},
		{"interp/scalar", query.Options{DisableExprCompile: true, DisableVectorization: true}},
	}
	type outcome struct {
		stats query.Stats
		body  string
		err   error
	}
	var base outcome
	for i, m := range modes {
		res, err := query.Run(ctx, q, segs, schema, m.opt)
		o := outcome{err: err}
		if err == nil {
			o.stats = res.Stats
			res.QueryID, res.Trace = "", nil
			b, merr := json.Marshal(res)
			if merr != nil {
				t.Fatalf("%s: %q: marshal: %v", label, q, merr)
			}
			o.body = string(b)
		}
		if i == 0 {
			base = o
			continue
		}
		if (o.err == nil) != (base.err == nil) {
			t.Fatalf("%s: %q: error mismatch: %s=%v vs %s=%v", label, q, modes[0].name, base.err, m.name, o.err)
		}
		if o.err != nil {
			if o.err.Error() != base.err.Error() {
				t.Fatalf("%s: %q: error text mismatch:\n%s: %v\n%s: %v", label, q, modes[0].name, base.err, m.name, o.err)
			}
			continue
		}
		if o.stats != base.stats {
			t.Fatalf("%s: %q: stats diverge:\n%s: %+v\n%s: %+v", label, q, modes[0].name, base.stats, m.name, o.stats)
		}
		if o.body != base.body {
			t.Fatalf("%s: %q: results diverge:\n%s: %s\n%s: %s", label, q, modes[0].name, base.body, m.name, o.body)
		}
	}
}

// exprDiffQueries samples expression-bearing queries over the mixed fixture
// schema (category/bucket/tags/hits/score/day).
func exprDiffQueries(r *rand.Rand, n int) []string {
	numExpr := func() string {
		switch r.Intn(8) {
		case 0:
			return fmt.Sprintf("hits + %d", r.Intn(50))
		case 1:
			return fmt.Sprintf("(hits - %d) * %d", r.Intn(500), 1+r.Intn(4))
		case 2:
			return fmt.Sprintf("score * %d.5", r.Intn(3))
		case 3:
			return fmt.Sprintf("abs(score - %d)", r.Intn(1000))
		case 4:
			return fmt.Sprintf("abs(hits - %d)", r.Intn(1000))
		case 5:
			return fmt.Sprintf("hits / %d", 1+r.Intn(9))
		case 6:
			return fmt.Sprintf("timeBucket(day, %d)", 1+r.Intn(10))
		default:
			return fmt.Sprintf("bucket * %d + hits", 1+r.Intn(5))
		}
	}
	where := func() string {
		switch r.Intn(9) {
		case 0:
			return fmt.Sprintf(" WHERE hits + bucket > %d", r.Intn(1000))
		case 1:
			return fmt.Sprintf(" WHERE abs(score - %d) < %d", r.Intn(1200), 100+r.Intn(400))
		case 2:
			return fmt.Sprintf(" WHERE timeBucket(day, 7) = %d", 16996+7*r.Intn(3))
		case 3:
			return fmt.Sprintf(" WHERE upper(category) = 'CAT%d'", r.Intn(7))
		case 4:
			return fmt.Sprintf(" WHERE concat(category, '-', bucket) = 'cat%d-%d'", r.Intn(6), r.Intn(40))
		case 5:
			return fmt.Sprintf(" WHERE hits * 2 <= score + %d", r.Intn(500))
		case 6:
			// Mixes an expression leaf with classic index-friendly leaves
			// under AND/OR, so pruning and bitmap collapse interact with
			// the expression filter.
			return fmt.Sprintf(" WHERE category = 'cat%d' AND hits - %d >= 0", r.Intn(6), r.Intn(800))
		case 7:
			return fmt.Sprintf(" WHERE NOT (hits + %d < score)", r.Intn(300))
		default:
			return ""
		}
	}
	groupBy := func() string {
		switch r.Intn(4) {
		case 0:
			return fmt.Sprintf(" GROUP BY timeBucket(day, %d)", 1+r.Intn(10))
		case 1:
			return " GROUP BY concat(category, bucket)"
		case 2:
			return fmt.Sprintf(" GROUP BY category, timeBucket(day, %d)", 2+r.Intn(6))
		default:
			return " GROUP BY lower(category)"
		}
	}
	out := make([]string, n)
	for i := range out {
		switch r.Intn(6) {
		case 0:
			out[i] = fmt.Sprintf("SELECT sum(%s), count(*) FROM difftbl%s", numExpr(), where())
		case 1:
			out[i] = fmt.Sprintf("SELECT min(%s), max(%s) FROM difftbl%s", numExpr(), numExpr(), where())
		case 2:
			out[i] = fmt.Sprintf("SELECT avg(%s) FROM difftbl%s", numExpr(), where())
		case 3:
			out[i] = fmt.Sprintf("SELECT distinctcount(timeBucket(day, %d)) FROM difftbl%s", 1+r.Intn(6), where())
		case 4:
			out[i] = fmt.Sprintf("SELECT sum(%s) FROM difftbl%s%s TOP %d", numExpr(), where(), groupBy(), 1+r.Intn(12))
		default:
			out[i] = fmt.Sprintf("SELECT count(*), sum(hits) FROM difftbl%s%s TOP %d", where(), groupBy(), 1+r.Intn(10))
		}
	}
	return out
}

func TestExprCompiledVsInterpreterDifferential(t *testing.T) {
	schema := diffSchema(t)
	r := rand.New(rand.NewSource(271))

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
		build("ediff_plain", segment.IndexConfig{}, 2500),
		build("ediff_inv", segment.IndexConfig{InvertedColumns: []string{"category", "bucket"}}, 2500),
	}
	// A realtime (mutable) segment: unsorted dictionaries and the
	// mutableColumn batch readers feed the kernels too.
	ms, err := segment.NewMutableSegment("difftbl", "ediff_rt", schema, segment.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1200; i++ {
		if err := ms.Add(diffRow(r)); err != nil {
			t.Fatal(err)
		}
	}
	segs = append(segs, query.IndexedSegment{Seg: ms.Snapshot()})

	queries := exprDiffQueries(r, 220)
	for _, q := range queries {
		runExprModes(t, "exprdiff", q, segs, schema)
	}

	// Hand-picked edge shapes: interpreter-only builtins in filters and
	// group-bys, constant-width division, derived columns under NOT, and
	// expressions whose kernels decline (string ops) mixed with ones that
	// compile — both sides of the batch-comparison gate.
	edge := []string{
		"SELECT count(*) FROM difftbl WHERE lower(category) = 'cat3'",
		"SELECT sum(hits) FROM difftbl WHERE concat(category, '-', bucket) = 'cat1-3' GROUP BY category TOP 5",
		"SELECT sum(hits + 0) FROM difftbl",
		"SELECT sum(hits) FROM difftbl WHERE hits - hits = 0",
		"SELECT count(*) FROM difftbl WHERE NOT abs(hits - 500) > 400",
		// Division by a zero constant yields +Inf per IEEE; compare it in the
		// filter (an Inf aggregate itself would not be JSON-marshalable).
		"SELECT count(*) FROM difftbl WHERE score / 0 > hits",
		"SELECT sum(hits) FROM difftbl GROUP BY timeBucket(day, 1) TOP 20",
		"SELECT count(*) FROM difftbl WHERE timeBucket(day, 7) <> timeBucket(day, 14)",
		"SELECT max(abs(score) * 2 - abs(hits)) FROM difftbl WHERE score / 2 > hits / 3",
	}
	for _, q := range edge {
		runExprModes(t, "exprdiff/edge", q, segs, schema)
	}
}

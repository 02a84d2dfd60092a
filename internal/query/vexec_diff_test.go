// Differential test for the vectorized execution path: every query must
// produce byte-identical finalized results AND identical Stats whether it
// runs block-at-a-time (the default) or row-at-a-time
// (Options.DisableVectorization). The query pool is seeded-random and spans
// aggregations, group-bys, selections (with ORDER BY / LIMIT / OFFSET),
// multi-value columns, raw-metric predicates, NOT/IN/BETWEEN, realtime
// (mutable) segments and schema-evolution default columns, across no-index,
// inverted and sorted variants so each physical operator family is exercised.
package query_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"pinot/internal/query"
	"pinot/internal/segment"
	"pinot/internal/workload"
)

func runBothModes(t *testing.T, label, q string, segs []query.IndexedSegment, schema *segment.Schema, base query.Options) {
	t.Helper()
	ctx := context.Background()
	vecOpt := base
	vecOpt.DisableVectorization = false
	scalOpt := base
	scalOpt.DisableVectorization = true

	vec, vecErr := query.Run(ctx, q, segs, schema, vecOpt)
	scal, scalErr := query.Run(ctx, q, segs, schema, scalOpt)
	if (vecErr == nil) != (scalErr == nil) {
		t.Fatalf("%s: %q: error mismatch: vec=%v scalar=%v", label, q, vecErr, scalErr)
	}
	if vecErr != nil {
		if vecErr.Error() != scalErr.Error() {
			t.Fatalf("%s: %q: error text mismatch: vec=%v scalar=%v", label, q, vecErr, scalErr)
		}
		return
	}
	if vec.Stats != scal.Stats {
		t.Fatalf("%s: %q: stats diverge:\nvec:    %+v\nscalar: %+v", label, q, vec.Stats, scal.Stats)
	}
	// The query ID and phase timings are volatile per run; everything else
	// must be byte-identical.
	vec.QueryID, vec.Trace = "", nil
	scal.QueryID, scal.Trace = "", nil
	vj, err := json.Marshal(vec)
	if err != nil {
		t.Fatalf("%s: %q: marshal vec: %v", label, q, err)
	}
	sj, err := json.Marshal(scal)
	if err != nil {
		t.Fatalf("%s: %q: marshal scalar: %v", label, q, err)
	}
	if string(vj) != string(sj) {
		t.Fatalf("%s: %q: results diverge:\nvec:    %s\nscalar: %s", label, q, vj, sj)
	}
}

func TestVectorizedDifferentialAnomaly(t *testing.T) {
	size := workload.SizeConfig{Segments: 2, RowsPerSegment: 4000, Seed: 11}
	d := workload.Anomaly(size)
	variants := []workload.Variant{
		{Name: "noindex"},
		{Name: "inverted", Index: segment.IndexConfig{InvertedColumns: d.InvertedColumns}},
	}
	queries := d.Queries(70, 1234)
	for _, v := range variants {
		segs, _, err := d.BuildIndexed(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			runBothModes(t, "anomaly/"+v.Name, q, segs, d.Schema, v.PlanOptions())
		}
	}
}

func TestVectorizedDifferentialWVMP(t *testing.T) {
	size := workload.SizeConfig{Segments: 2, RowsPerSegment: 4000, Seed: 7}
	d := workload.ShareAnalytics(size)
	variants := []workload.Variant{
		{Name: "noindex"},
		{Name: "sorted", Index: segment.IndexConfig{SortColumn: "vieweeId"}},
		{Name: "inverted", Index: segment.IndexConfig{InvertedColumns: d.InvertedColumns}},
	}
	queries := d.Queries(70, 4321)
	for _, v := range variants {
		segs, _, err := d.BuildIndexed(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			runBothModes(t, "wvmp/"+v.Name, q, segs, d.Schema, v.PlanOptions())
		}
	}
}

// diffSchema builds the mixed fixture: a multi-value string dimension, low-
// and mid-cardinality single-value dimensions, raw long and double metrics
// and a time column.
func diffSchema(t *testing.T) *segment.Schema {
	t.Helper()
	schema, err := segment.NewSchema("difftbl", []segment.FieldSpec{
		{Name: "category", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "bucket", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "tags", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: false},
		{Name: "hits", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
		{Name: "score", Type: segment.TypeDouble, Kind: segment.Metric, SingleValue: true},
		{Name: "day", Type: segment.TypeLong, Kind: segment.Time, SingleValue: true, TimeUnit: "DAYS"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return schema
}

func diffRow(r *rand.Rand) segment.Row {
	nTags := 1 + r.Intn(3)
	tags := make([]string, nTags)
	for i := range tags {
		tags[i] = fmt.Sprintf("tag%d", r.Intn(12))
	}
	return segment.Row{
		fmt.Sprintf("cat%d", r.Intn(6)),
		int64(r.Intn(40)),
		tags,
		int64(r.Intn(1000)),
		float64(r.Intn(10000)) / 8,
		int64(17000 + r.Intn(14)),
	}
}

// diffQueries samples queries over the mixed fixture: aggregations over raw
// metrics, group-bys hitting the dense, packed and string groupers,
// selections with ORDER BY / OFFSET and multi-value + NOT + raw-metric
// predicates.
func diffQueries(r *rand.Rand, n int) []string {
	where := func() string {
		switch r.Intn(8) {
		case 0:
			return fmt.Sprintf(" WHERE category = 'cat%d'", r.Intn(7))
		case 1:
			return fmt.Sprintf(" WHERE tags = 'tag%d'", r.Intn(13))
		case 2:
			return fmt.Sprintf(" WHERE bucket BETWEEN %d AND %d", r.Intn(20), 20+r.Intn(20))
		case 3:
			return fmt.Sprintf(" WHERE score > %d.5", r.Intn(1200))
		case 4:
			return fmt.Sprintf(" WHERE hits <= %d", r.Intn(1000))
		case 5:
			return fmt.Sprintf(" WHERE NOT tags IN ('tag%d', 'tag%d')", r.Intn(12), r.Intn(12))
		case 6:
			return fmt.Sprintf(" WHERE category != 'cat%d' AND day >= %d", r.Intn(6), 17000+r.Intn(14))
		default:
			return ""
		}
	}
	out := make([]string, n)
	for i := range out {
		switch r.Intn(7) {
		case 0:
			out[i] = "SELECT sum(score), count(*) FROM difftbl" + where()
		case 1:
			out[i] = "SELECT min(score), max(hits), avg(score) FROM difftbl" + where()
		case 2:
			out[i] = "SELECT percentile95(score), distinctcount(bucket) FROM difftbl" + where()
		case 3:
			out[i] = fmt.Sprintf("SELECT sum(hits) FROM difftbl%s GROUP BY category TOP %d", where(), 1+r.Intn(10))
		case 4:
			out[i] = fmt.Sprintf("SELECT count(*), sum(score) FROM difftbl%s GROUP BY category, bucket TOP %d", where(), 1+r.Intn(12))
		case 5:
			out[i] = fmt.Sprintf("SELECT category, score, tags FROM difftbl%s LIMIT %d", where(), r.Intn(30))
		default:
			out[i] = fmt.Sprintf("SELECT category, hits FROM difftbl%s ORDER BY score DESC, category LIMIT %d, %d", where(), r.Intn(5), 1+r.Intn(20))
		}
	}
	return out
}

// scanLeafTrees lists the filter shapes whose scan leaves sit under an AND,
// OR or NOT: 2- and 3-leaf trees over every scan-leaf kind (dictionary =,
// range, IN and NOT IN; raw long and double metric; compiled expression
// comparison), each also negated, bare and behind the two narrow drivers. On
// the fixture's segments `bucket = 12` is a sorted range, a bitmap or a scan,
// and `category = 'cat1'` a bitmap or a scan.
func scanLeafTrees() []string {
	leaves := []string{
		"category = 'cat2'",
		"bucket BETWEEN 5 AND 25",
		"category IN ('cat1', 'cat3', 'cat9')",
		"bucket NOT IN (3, 7, 11)",
		"day != 17003",
		"hits < 600",
		"hits IN (1, 17, 333, 420)",
		"score > 300.5",
		"score BETWEEN 100 AND 900.25",
		"hits + bucket > 500",
		"score * 2 < hits",
	}
	var trees []string
	for i, a := range leaves {
		for j, b := range leaves {
			if i >= j {
				continue
			}
			trees = append(trees, a+" AND "+b, a+" OR "+b)
			if c := leaves[(i+j)%len(leaves)]; c != a && c != b {
				trees = append(trees, a+" AND "+b+" AND "+c, a+" OR "+b+" OR "+c, a+" AND ("+b+" OR "+c+")")
			}
		}
	}
	var out []string
	for i, tree := range trees {
		out = append(out, tree, "NOT ("+tree+")")
		switch i % 3 {
		case 0:
			out = append(out, "bucket = 12 AND ("+tree+")")
		case 1:
			out = append(out, "category = 'cat1' AND NOT ("+tree+")")
		}
	}
	return out
}

func TestVectorizedDifferentialMixed(t *testing.T) {
	schema := diffSchema(t)
	r := rand.New(rand.NewSource(99))

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

	// One plain immutable segment, one with inverted indexes, and one
	// realtime (mutable) segment so the unsorted-dictionary and
	// mutableColumn batch paths run too.
	segs := []query.IndexedSegment{
		build("diff_plain", segment.IndexConfig{}, 3000),
		build("diff_inv", segment.IndexConfig{InvertedColumns: []string{"category", "tags", "bucket"}}, 3000),
	}
	ms, err := segment.NewMutableSegment("difftbl", "diff_rt", schema, segment.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		if err := ms.Add(diffRow(r)); err != nil {
			t.Fatal(err)
		}
	}
	segs = append(segs, query.IndexedSegment{Seg: ms.Snapshot()})

	// A table schema with one extra column the segments predate, so the
	// virtual default-column batch fills are exercised via SELECT *.
	extended, err := schema.WithColumn(segment.FieldSpec{
		Name: "region", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	queries := diffQueries(r, 60)
	for _, q := range queries {
		runBothModes(t, "mixed", q, segs, schema, query.Options{})
	}
	extraQueries := []string{
		"SELECT * FROM difftbl LIMIT 25",
		"SELECT sum(hits) FROM difftbl WHERE region = 'null' GROUP BY region, category TOP 10",
		"SELECT count(*) FROM difftbl WHERE region != 'x'",
		"SELECT * FROM difftbl WHERE score >= 0 ORDER BY hits LIMIT 3, 9",
		"SELECT sum(score) FROM difftbl WHERE category = 'cat0' OR category = 'cat1' OR bucket = 3",
		"SELECT count(*) FROM difftbl WHERE category = 'cat2' AND bucket BETWEEN 0 AND 30 AND tags = 'tag1'",
		"SELECT category, bucket FROM difftbl WHERE bucket = 12 LIMIT 0",
	}
	for _, q := range extraQueries {
		runBothModes(t, "mixed/extended", q, segs, extended, query.Options{})
	}

	// Scan leaves under AND, OR and NOT, over the segments above plus one
	// sorted on bucket: aggregations walk every match, the selections stop
	// within the first chunk of a leaf.
	segs = append(segs, build("diff_sorted", segment.IndexConfig{SortColumn: "bucket"}, 3000))
	for _, where := range scanLeafTrees() {
		runBothModes(t, "mixed/trees", "SELECT count(*), sum(score) FROM difftbl WHERE "+where, segs, schema, query.Options{})
		runBothModes(t, "mixed/trees", "SELECT category, hits FROM difftbl WHERE "+where+" LIMIT 7", segs, schema, query.Options{})
	}
	// The same over schema-evolution default columns: a raw metric and a
	// dictionary dimension no segment holds.
	evolved, err := extended.WithColumn(segment.FieldSpec{
		Name: "bonus", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, where := range []string{
		"bonus >= 0 AND hits < 600",
		"hits < 600 AND bonus IN (0, 5)",
		"bonus + hits > 500 AND score > 300.5",
		"NOT (bonus > 3 OR category = 'cat2')",
		"bucket = 12 AND bonus + bucket < 13",
		"region != 'x' AND hits + bonus < 100 AND score * 2 < hits",
	} {
		runBothModes(t, "mixed/evolved", "SELECT count(*), sum(bonus) FROM difftbl WHERE "+where, segs, evolved, query.Options{})
		runBothModes(t, "mixed/evolved", "SELECT category, bonus FROM difftbl WHERE "+where+" LIMIT 7", segs, evolved, query.Options{})
	}

	// ForceBitmap (Druid-style evaluation) over the inverted segment —
	// bitmap AND/OR collapse must not change results or stats.
	druidish := query.Options{ForceBitmap: true, DisableSorted: true, DisableStarTree: true, DisableMetadataPlans: true}
	for _, q := range queries[:30] {
		runBothModes(t, "mixed/forcebitmap", q, segs, schema, druidish)
	}
}

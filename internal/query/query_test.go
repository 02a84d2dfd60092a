package query

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pinot/internal/pql"
	"pinot/internal/segment"
	"pinot/internal/startree"
)

// ---- test fixtures ----

type testRow struct {
	country string
	browser string
	member  int64
	clicks  int64
	rev     float64
	day     int64
}

func testRows(n int, seed int64) []testRow {
	r := rand.New(rand.NewSource(seed))
	countries := []string{"us", "de", "fr", "in", "br", "jp", "uk"}
	browsers := []string{"chrome", "firefox", "safari", "edge"}
	rows := make([]testRow, n)
	for i := range rows {
		rows[i] = testRow{
			country: countries[r.Intn(len(countries))],
			browser: browsers[r.Intn(len(browsers))],
			member:  int64(r.Intn(50)),
			clicks:  int64(r.Intn(100)),
			rev:     float64(r.Intn(1000)) / 10,
			day:     int64(15000 + r.Intn(30)),
		}
	}
	return rows
}

func rowsSchema(t testing.TB) *segment.Schema {
	t.Helper()
	s, err := segment.NewSchema("events", []segment.FieldSpec{
		{Name: "country", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "browser", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "memberId", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "clicks", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
		{Name: "revenue", Type: segment.TypeDouble, Kind: segment.Metric, SingleValue: true},
		{Name: "day", Type: segment.TypeLong, Kind: segment.Time, SingleValue: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func buildRows(t testing.TB, rows []testRow, cfg segment.IndexConfig, name string) *segment.Segment {
	t.Helper()
	b, err := segment.NewBuilder("events", name, rowsSchema(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := b.Add(segment.Row{r.country, r.browser, r.member, r.clicks, r.rev, r.day}); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

func runPQL(t testing.TB, segs []IndexedSegment, q string, opt Options) *Result {
	t.Helper()
	res, err := Run(context.Background(), q, segs, nil, opt)
	if err != nil {
		t.Fatalf("Run(%q): %v", q, err)
	}
	return res
}

// refFilter evaluates a predicate against a testRow, the brute-force
// reference.
func refFilter(r testRow, pred pql.Predicate) bool {
	get := func(col string) any {
		switch col {
		case "country":
			return r.country
		case "browser":
			return r.browser
		case "memberId":
			return r.member
		case "clicks":
			return r.clicks
		case "revenue":
			return r.rev
		case "day":
			return r.day
		}
		panic("unknown column " + col)
	}
	coerce := func(col string, v any) any {
		switch get(col).(type) {
		case int64:
			if f, ok := v.(float64); ok {
				return int64(f)
			}
			return v
		case float64:
			if i, ok := v.(int64); ok {
				return float64(i)
			}
			return v
		}
		return v
	}
	switch p := pred.(type) {
	case pql.Comparison:
		c := segment.CompareValues(get(p.Column), coerce(p.Column, p.Value))
		switch p.Op {
		case pql.OpEq:
			return c == 0
		case pql.OpNeq:
			return c != 0
		case pql.OpLt:
			return c < 0
		case pql.OpLte:
			return c <= 0
		case pql.OpGt:
			return c > 0
		case pql.OpGte:
			return c >= 0
		}
	case pql.In:
		for _, v := range p.Values {
			if segment.CompareValues(get(p.Column), coerce(p.Column, v)) == 0 {
				return !p.Negated
			}
		}
		return p.Negated
	case pql.Between:
		return segment.CompareValues(get(p.Column), coerce(p.Column, p.Lo)) >= 0 &&
			segment.CompareValues(get(p.Column), coerce(p.Column, p.Hi)) <= 0
	case pql.And:
		for _, c := range p.Children {
			if !refFilter(r, c) {
				return false
			}
		}
		return true
	case pql.Or:
		for _, c := range p.Children {
			if refFilter(r, c) {
				return true
			}
		}
		return false
	case pql.Not:
		return !refFilter(r, p.Child)
	}
	panic("unknown predicate")
}

// ---- basic correctness across index configurations ----

func allConfigs() map[string]segment.IndexConfig {
	return map[string]segment.IndexConfig{
		"noindex":  {},
		"inverted": {InvertedColumns: []string{"country", "browser", "memberId", "day"}},
		"sorted":   {SortColumn: "memberId"},
		"sorted+inverted": {
			SortColumn:      "memberId",
			InvertedColumns: []string{"country", "browser"},
		},
	}
}

func TestFilterCorrectnessAcrossIndexConfigs(t *testing.T) {
	rows := testRows(3000, 1)
	filters := []string{
		"country = 'us'",
		"country <> 'us'",
		"memberId = 7",
		"memberId >= 25",
		"memberId BETWEEN 10 AND 20",
		"day < 15010",
		"clicks > 50",
		"revenue <= 42.5",
		"country IN ('us', 'de', 'xx')",
		"country NOT IN ('us', 'de')",
		"browser = 'chrome' AND country = 'us'",
		"browser = 'firefox' OR browser = 'safari'",
		"NOT country = 'us'",
		"(country = 'us' OR country = 'de') AND memberId < 10 AND clicks >= 20",
		"NOT (country = 'us' AND browser = 'chrome')",
		"memberId = 999",
		"memberId >= 0",
		"day >= 15000 AND day <= 15029",
	}
	for cfgName, cfg := range allConfigs() {
		seg := buildRows(t, rows, cfg, "s0")
		segs := []IndexedSegment{{Seg: seg}}
		for _, f := range filters {
			qText := "SELECT count(*) FROM events WHERE " + f
			res := runPQL(t, segs, qText, Options{})
			q, _ := pql.Parse(qText)
			want := int64(0)
			for _, r := range rows {
				if refFilter(r, q.Filter) {
					want++
				}
			}
			got := res.Rows[0][0].(int64)
			if got != want {
				t.Errorf("[%s] %s: count = %d, want %d", cfgName, f, got, want)
			}
		}
	}
}

func TestFilterCorrectnessForceBitmap(t *testing.T) {
	// Druid-style forced bitmap evaluation must agree with the default.
	rows := testRows(2000, 2)
	seg := buildRows(t, rows, segment.IndexConfig{
		InvertedColumns: []string{"country", "browser", "memberId", "day"},
	}, "s0")
	segs := []IndexedSegment{{Seg: seg}}
	filters := []string{
		"country = 'us'",
		"memberId >= 25",
		"country NOT IN ('us')",
		"browser = 'chrome' AND country = 'us' AND day > 15015",
	}
	for _, f := range filters {
		qText := "SELECT count(*) FROM events WHERE " + f
		def := runPQL(t, segs, qText, Options{}).Rows[0][0].(int64)
		forced := runPQL(t, segs, qText, Options{ForceBitmap: true}).Rows[0][0].(int64)
		if def != forced {
			t.Errorf("%s: default %d != forced-bitmap %d", f, def, forced)
		}
	}
}

func TestAggregationFunctions(t *testing.T) {
	rows := testRows(1000, 3)
	seg := buildRows(t, rows, segment.IndexConfig{}, "s0")
	segs := []IndexedSegment{{Seg: seg}}
	res := runPQL(t, segs,
		"SELECT count(*), sum(clicks), min(clicks), max(clicks), avg(revenue), distinctcount(country) FROM events WHERE country = 'us'", Options{})
	var wantCount, wantSum int64
	wantMin, wantMax := int64(1<<62), int64(-1)
	var wantRev float64
	for _, r := range rows {
		if r.country != "us" {
			continue
		}
		wantCount++
		wantSum += r.clicks
		if r.clicks < wantMin {
			wantMin = r.clicks
		}
		if r.clicks > wantMax {
			wantMax = r.clicks
		}
		wantRev += r.rev
	}
	row := res.Rows[0]
	if row[0].(int64) != wantCount {
		t.Errorf("count = %v, want %d", row[0], wantCount)
	}
	if row[1].(float64) != float64(wantSum) {
		t.Errorf("sum = %v, want %d", row[1], wantSum)
	}
	if row[2].(float64) != float64(wantMin) || row[3].(float64) != float64(wantMax) {
		t.Errorf("min/max = %v/%v, want %d/%d", row[2], row[3], wantMin, wantMax)
	}
	wantAvg := wantRev / float64(wantCount)
	if got := row[4].(float64); got < wantAvg-1e-9 || got > wantAvg+1e-9 {
		t.Errorf("avg = %v, want %v", got, wantAvg)
	}
	if row[5].(int64) != 1 {
		t.Errorf("distinctcount(country) with country='us' filter = %v, want 1", row[5])
	}
}

func TestDistinctCount(t *testing.T) {
	rows := testRows(500, 4)
	seg := buildRows(t, rows, segment.IndexConfig{}, "s0")
	res := runPQL(t, []IndexedSegment{{Seg: seg}}, "SELECT distinctcount(memberId) FROM events", Options{})
	want := map[int64]bool{}
	for _, r := range rows {
		want[r.member] = true
	}
	if got := res.Rows[0][0].(int64); got != int64(len(want)) {
		t.Errorf("distinctcount = %d, want %d", got, len(want))
	}
}

func TestGroupBy(t *testing.T) {
	rows := testRows(2000, 5)
	for cfgName, cfg := range allConfigs() {
		seg := buildRows(t, rows, cfg, "s0")
		res := runPQL(t, []IndexedSegment{{Seg: seg}},
			"SELECT sum(clicks) FROM events WHERE browser = 'chrome' GROUP BY country TOP 100", Options{})
		want := map[string]float64{}
		for _, r := range rows {
			if r.browser == "chrome" {
				want[r.country] += float64(r.clicks)
			}
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("[%s] groups = %d, want %d", cfgName, len(res.Rows), len(want))
		}
		for _, row := range res.Rows {
			c := row[0].(string)
			if row[1].(float64) != want[c] {
				t.Errorf("[%s] group %s = %v, want %v", cfgName, c, row[1], want[c])
			}
		}
		// Rows must be ordered by the first aggregation, descending.
		for i := 1; i < len(res.Rows); i++ {
			if res.Rows[i][1].(float64) > res.Rows[i-1][1].(float64) {
				t.Fatalf("[%s] group rows not sorted desc", cfgName)
			}
		}
	}
}

func TestGroupByTopN(t *testing.T) {
	rows := testRows(2000, 6)
	seg := buildRows(t, rows, segment.IndexConfig{}, "s0")
	res := runPQL(t, []IndexedSegment{{Seg: seg}}, "SELECT count(*) FROM events GROUP BY country TOP 3", Options{})
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	counts := map[string]int64{}
	for _, r := range rows {
		counts[r.country]++
	}
	var all []int64
	for _, c := range counts {
		all = append(all, c)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] > all[j] })
	for i, row := range res.Rows {
		if row[1].(int64) != all[i] {
			t.Errorf("top %d = %v, want %v", i, row[1], all[i])
		}
	}
}

func TestGroupByMultipleColumns(t *testing.T) {
	rows := testRows(1500, 7)
	seg := buildRows(t, rows, segment.IndexConfig{}, "s0")
	res := runPQL(t, []IndexedSegment{{Seg: seg}},
		"SELECT count(*), sum(clicks) FROM events GROUP BY country, browser TOP 1000", Options{})
	type key struct{ c, b string }
	wantN := map[key]int64{}
	wantS := map[key]float64{}
	for _, r := range rows {
		k := key{r.country, r.browser}
		wantN[k]++
		wantS[k] += float64(r.clicks)
	}
	if len(res.Rows) != len(wantN) {
		t.Fatalf("groups = %d, want %d", len(res.Rows), len(wantN))
	}
	for _, row := range res.Rows {
		k := key{row[0].(string), row[1].(string)}
		if row[2].(int64) != wantN[k] || row[3].(float64) != wantS[k] {
			t.Errorf("group %v = %v/%v, want %v/%v", k, row[2], row[3], wantN[k], wantS[k])
		}
	}
}

func TestSelectionQueries(t *testing.T) {
	rows := testRows(500, 8)
	seg := buildRows(t, rows, segment.IndexConfig{SortColumn: "memberId"}, "s0")
	segs := []IndexedSegment{{Seg: seg}}
	res := runPQL(t, segs, "SELECT country, clicks FROM events WHERE memberId = 7 LIMIT 1000", Options{})
	want := 0
	for _, r := range rows {
		if r.member == 7 {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(res.Rows), want)
	}
	if !reflect.DeepEqual(res.Columns, []string{"country", "clicks"}) {
		t.Fatalf("columns = %v", res.Columns)
	}
	// ORDER BY + LIMIT.
	res = runPQL(t, segs, "SELECT memberId, clicks FROM events ORDER BY clicks DESC LIMIT 5", Options{})
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var clicks []int64
	for _, r := range rows {
		clicks = append(clicks, r.clicks)
	}
	sort.Slice(clicks, func(i, j int) bool { return clicks[i] > clicks[j] })
	for i, row := range res.Rows {
		if row[1].(int64) != clicks[i] {
			t.Errorf("row %d clicks = %v, want %v", i, row[1], clicks[i])
		}
	}
	// OFFSET.
	res2 := runPQL(t, segs, "SELECT memberId, clicks FROM events ORDER BY clicks DESC LIMIT 2, 3", Options{})
	if len(res2.Rows) != 3 {
		t.Fatalf("offset rows = %d", len(res2.Rows))
	}
	if res2.Rows[0][1].(int64) != clicks[2] {
		t.Errorf("offset row 0 = %v, want %v", res2.Rows[0][1], clicks[2])
	}
	// SELECT * expands schema columns.
	res3 := runPQL(t, segs, "SELECT * FROM events LIMIT 1", Options{})
	if len(res3.Columns) != 6 || res3.Columns[0] != "country" {
		t.Fatalf("star columns = %v", res3.Columns)
	}
	// So does a SELECT * whose every segment was pruned: the header does not
	// depend on whether a row matched.
	pruned, err := Run(context.Background(), "SELECT * FROM events WHERE day > 999999 LIMIT 1", segs, rowsSchema(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pruned.Columns, res3.Columns) || len(pruned.Rows) != 0 || pruned.Stats.SegmentsPrunedByServer != 1 {
		t.Fatalf("all-pruned star: columns %v, %d rows, stats %+v", pruned.Columns, len(pruned.Rows), pruned.Stats)
	}
	// A selection is charged what its filter scanned plus a cell per column
	// of every row it read, as an aggregation over the same filter is: on an
	// unindexed segment the filter walks the whole column.
	unindexed := []IndexedSegment{{Seg: buildRows(t, rows, segment.IndexConfig{}, "s1")}}
	count := runPQL(t, unindexed, "SELECT count(*) FROM events WHERE country = 'us'", Options{})
	docs := count.Stats.NumDocsScanned
	filter := count.Stats.NumEntriesScanned - docs
	sel := runPQL(t, unindexed, "SELECT country, clicks FROM events WHERE country = 'us' LIMIT 5000", Options{})
	if filter < int64(len(rows)) || sel.Stats.NumDocsScanned != docs || sel.Stats.NumEntriesScanned != filter+2*docs {
		t.Fatalf("selection charged %d entries for %d docs of 2 columns behind a filter of %d", sel.Stats.NumEntriesScanned, docs, filter)
	}
}

func TestMetadataOnlyPlan(t *testing.T) {
	rows := testRows(1000, 9)
	seg := buildRows(t, rows, segment.IndexConfig{}, "s0")
	segs := []IndexedSegment{{Seg: seg}}
	res := runPQL(t, segs, "SELECT count(*), min(clicks), max(clicks) FROM events", Options{})
	if res.Stats.MetadataOnlySegments != 1 {
		t.Fatalf("metadata-only plan not used: %+v", res.Stats)
	}
	if res.Stats.NumDocsScanned != 0 {
		t.Fatalf("metadata plan scanned %d docs", res.Stats.NumDocsScanned)
	}
	if res.Rows[0][0].(int64) != 1000 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	// Disabled: must scan instead, same answers.
	res2 := runPQL(t, segs, "SELECT count(*), min(clicks), max(clicks) FROM events", Options{DisableMetadataPlans: true})
	if res2.Stats.MetadataOnlySegments != 0 || res2.Stats.NumDocsScanned != 1000 {
		t.Fatalf("metadata plan not disabled: %+v", res2.Stats)
	}
	for i := range res.Rows[0] {
		if res.Rows[0][i] != res2.Rows[0][i] {
			t.Fatalf("metadata answer %v != scan answer %v", res.Rows[0], res2.Rows[0])
		}
	}
	// AVG is not metadata-answerable.
	res3 := runPQL(t, segs, "SELECT avg(clicks) FROM events", Options{})
	if res3.Stats.MetadataOnlySegments != 0 {
		t.Fatal("avg answered from metadata")
	}
}

func TestSortedColumnPlanScansFewerDocs(t *testing.T) {
	rows := testRows(5000, 10)
	sorted := buildRows(t, rows, segment.IndexConfig{SortColumn: "memberId"}, "s0")
	unsorted := buildRows(t, rows, segment.IndexConfig{}, "s1")
	q := "SELECT sum(clicks) FROM events WHERE memberId = 11"
	rs := runPQL(t, []IndexedSegment{{Seg: sorted}}, q, Options{})
	ru := runPQL(t, []IndexedSegment{{Seg: unsorted}}, q, Options{})
	if rs.Rows[0][0] != ru.Rows[0][0] {
		t.Fatalf("answers differ: %v vs %v", rs.Rows[0][0], ru.Rows[0][0])
	}
	// The sorted plan touches only the matching contiguous range; the
	// unsorted plan evaluates the predicate on every document.
	if rs.Stats.NumEntriesScanned >= ru.Stats.NumEntriesScanned {
		t.Fatalf("sorted plan scanned %d entries, unsorted %d", rs.Stats.NumEntriesScanned, ru.Stats.NumEntriesScanned)
	}
}

func TestStarTreePlanUsedTransparently(t *testing.T) {
	rows := testRows(5000, 11)
	seg := buildRows(t, rows, segment.IndexConfig{}, "s0")
	tree, err := startree.Build(seg, startree.Config{
		DimensionSplitOrder: []string{"browser", "country", "day"},
		Metrics:             []string{"clicks", "revenue"},
		MaxLeafRecords:      100,
	})
	if err != nil {
		t.Fatal(err)
	}
	segs := []IndexedSegment{{Seg: seg, Tree: tree}}
	raw := []IndexedSegment{{Seg: seg}}
	queries := []string{
		"SELECT sum(clicks) FROM events WHERE browser = 'firefox'",
		"SELECT sum(clicks), count(*) FROM events WHERE browser = 'firefox' OR browser = 'safari' GROUP BY country TOP 100",
		"SELECT avg(revenue) FROM events WHERE country IN ('us','de') AND browser = 'chrome'",
		"SELECT count(*) FROM events WHERE day BETWEEN 15005 AND 15010 GROUP BY browser TOP 100",
	}
	for _, qt := range queries {
		st := runPQL(t, segs, qt, Options{})
		plain := runPQL(t, raw, qt, Options{})
		if st.Stats.StarTreeSegments != 1 {
			t.Errorf("%s: star tree not used", qt)
		}
		if !resultRowsEqual(st, plain) {
			t.Errorf("%s:\n  star-tree: %v\n  raw:       %v", qt, st.Rows, plain.Rows)
		}
		if st.Stats.StarTreeRecordsScanned >= int64(seg.NumDocs()) {
			t.Errorf("%s: star tree scanned %d records (raw %d)", qt, st.Stats.StarTreeRecordsScanned, seg.NumDocs())
		}
	}
	// Queries the tree cannot answer fall back to raw execution.
	fallbacks := []string{
		"SELECT min(clicks) FROM events WHERE browser = 'firefox'",             // MIN not preaggregated
		"SELECT sum(clicks) FROM events WHERE memberId = 3",                    // memberId not in split order
		"SELECT sum(clicks) FROM events GROUP BY memberId",                     // group-by not in split order
		"SELECT sum(clicks) FROM events WHERE NOT browser = 'firefox'",         // NOT not decomposable
		"SELECT sum(clicks) FROM events WHERE browser = 'x' OR country = 'us'", // cross-column OR
	}
	for _, qt := range fallbacks {
		st := runPQL(t, segs, qt, Options{})
		plain := runPQL(t, raw, qt, Options{})
		if st.Stats.StarTreeSegments != 0 {
			t.Errorf("%s: star tree unexpectedly used", qt)
		}
		if !resultRowsEqual(st, plain) {
			t.Errorf("%s: fallback answers differ", qt)
		}
	}
	// DisableStarTree forces raw execution.
	st := runPQL(t, segs, queries[0], Options{DisableStarTree: true})
	if st.Stats.StarTreeSegments != 0 {
		t.Fatal("star tree used despite DisableStarTree")
	}
}

func resultRowsEqual(a, b *Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	key := func(row []any) string {
		parts := make([]any, len(row))
		for i, v := range row {
			// Tolerate summation-order float differences.
			if f, ok := v.(float64); ok {
				parts[i] = fmt.Sprintf("%.6g", f)
			} else {
				parts[i] = v
			}
		}
		return fmt.Sprint(parts...)
	}
	am := map[string]int{}
	for _, r := range a.Rows {
		am[key(r)]++
	}
	for _, r := range b.Rows {
		am[key(r)]--
	}
	for _, n := range am {
		if n != 0 {
			return false
		}
	}
	return true
}

func TestMultiSegmentMerge(t *testing.T) {
	rows := testRows(3000, 12)
	var segs []IndexedSegment
	for i := 0; i < 3; i++ {
		seg := buildRows(t, rows[i*1000:(i+1)*1000], segment.IndexConfig{}, fmt.Sprintf("s%d", i))
		segs = append(segs, IndexedSegment{Seg: seg})
	}
	res := runPQL(t, segs, "SELECT count(*), sum(clicks), distinctcount(memberId) FROM events WHERE country = 'us'", Options{})
	var wantCount, wantSum int64
	members := map[int64]bool{}
	for _, r := range rows {
		if r.country == "us" {
			wantCount++
			wantSum += r.clicks
			members[r.member] = true
		}
	}
	if res.Rows[0][0].(int64) != wantCount {
		t.Errorf("count = %v, want %d", res.Rows[0][0], wantCount)
	}
	if res.Rows[0][1].(float64) != float64(wantSum) {
		t.Errorf("sum = %v, want %d", res.Rows[0][1], wantSum)
	}
	if res.Rows[0][2].(int64) != int64(len(members)) {
		t.Errorf("distinctcount = %v, want %d", res.Rows[0][2], len(members))
	}
	if res.Stats.NumSegmentsQueried != 3 {
		t.Errorf("segments queried = %d", res.Stats.NumSegmentsQueried)
	}
	// Group-by merge across segments.
	gres := runPQL(t, segs, "SELECT sum(clicks) FROM events GROUP BY country TOP 100", Options{})
	want := map[string]float64{}
	for _, r := range rows {
		want[r.country] += float64(r.clicks)
	}
	for _, row := range gres.Rows {
		if row[1].(float64) != want[row[0].(string)] {
			t.Errorf("merged group %v = %v, want %v", row[0], row[1], want[row[0].(string)])
		}
	}
}

func TestMutableSegmentQueries(t *testing.T) {
	ms, err := segment.NewMutableSegment("events", "rt0", rowsSchema(t), segment.IndexConfig{InvertedColumns: []string{"country"}})
	if err != nil {
		t.Fatal(err)
	}
	rows := testRows(800, 13)
	for _, r := range rows {
		if err := ms.Add(segment.Row{r.country, r.browser, r.member, r.clicks, r.rev, r.day}); err != nil {
			t.Fatal(err)
		}
	}
	segs := []IndexedSegment{{Seg: ms.Snapshot()}}
	// Range predicate over the unsorted realtime dictionary.
	res := runPQL(t, segs, "SELECT count(*) FROM events WHERE memberId >= 25 AND country = 'us'", Options{})
	var want int64
	for _, r := range rows {
		if r.member >= 25 && r.country == "us" {
			want++
		}
	}
	if res.Rows[0][0].(int64) != want {
		t.Fatalf("realtime count = %v, want %d", res.Rows[0][0], want)
	}
	// Group by on realtime segment.
	gres := runPQL(t, segs, "SELECT sum(clicks) FROM events GROUP BY browser TOP 100", Options{})
	wantG := map[string]float64{}
	for _, r := range rows {
		wantG[r.browser] += float64(r.clicks)
	}
	for _, row := range gres.Rows {
		if row[1].(float64) != wantG[row[0].(string)] {
			t.Fatalf("realtime group %v = %v, want %v", row[0], row[1], wantG[row[0].(string)])
		}
	}
}

func TestSchemaEvolutionDefaultColumn(t *testing.T) {
	rows := testRows(100, 14)
	seg := buildRows(t, rows, segment.IndexConfig{}, "s0")
	// Table schema gained a column the segment predates.
	newSchema, err := rowsSchema(t).WithColumn(segment.FieldSpec{
		Name: "region", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := pql.Parse("SELECT count(*) FROM events WHERE region = 'null' GROUP BY region")
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{}
	merged, exc, err := eng.Execute(context.Background(), q, []IndexedSegment{{Seg: seg}}, newSchema)
	if err != nil || len(exc) > 0 {
		t.Fatalf("err=%v exc=%v", err, exc)
	}
	res := merged.Finalize(q)
	if len(res.Rows) != 1 || res.Rows[0][0] != "null" || res.Rows[0][1].(int64) != 100 {
		t.Fatalf("default column rows = %v", res.Rows)
	}
	// Filter excluding the default value matches nothing.
	q2, _ := pql.Parse("SELECT count(*) FROM events WHERE region = 'west'")
	merged2, _, err := eng.Execute(context.Background(), q2, []IndexedSegment{{Seg: seg}}, newSchema)
	if err != nil {
		t.Fatal(err)
	}
	if got := merged2.Finalize(q2).Rows[0][0].(int64); got != 0 {
		t.Fatalf("count = %d, want 0", got)
	}
}

func TestErrorPaths(t *testing.T) {
	rows := testRows(50, 15)
	seg := buildRows(t, rows, segment.IndexConfig{}, "s0")
	segs := []IndexedSegment{{Seg: seg}}
	for _, qt := range []string{
		"SELECT count(*) FROM events WHERE nosuch = 1",
		"SELECT sum(country) FROM events",
		"SELECT sum(clicks) FROM events GROUP BY nosuch",
	} {
		if _, err := Run(context.Background(), qt, segs, nil, Options{}); err == nil {
			t.Errorf("%s: expected error", qt)
		}
	}
}

func TestContextCancellationYieldsPartial(t *testing.T) {
	rows := testRows(200, 16)
	var segs []IndexedSegment
	for i := 0; i < 64; i++ {
		segs = append(segs, IndexedSegment{Seg: buildRows(t, rows, segment.IndexConfig{}, fmt.Sprintf("s%d", i))})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: most segments skipped
	q, _ := pql.Parse("SELECT count(*) FROM events")
	eng := &Engine{Parallelism: 1}
	merged, exceptions, err := eng.Execute(ctx, q, segs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(exceptions) == 0 {
		t.Fatal("expected timeout exception")
	}
	res := merged.Finalize(q)
	if got := res.Rows[0][0].(int64); got >= int64(len(segs)*200) {
		t.Fatalf("expected partial count, got %d", got)
	}
}

func TestEmptySegmentList(t *testing.T) {
	res := runPQL(t, nil, "SELECT count(*) FROM events", Options{})
	if res.Rows[0][0].(int64) != 0 {
		t.Fatalf("empty count = %v", res.Rows[0][0])
	}
	res = runPQL(t, nil, "SELECT sum(clicks) FROM events GROUP BY country", Options{})
	if len(res.Rows) != 0 {
		t.Fatalf("empty group rows = %v", res.Rows)
	}
	res = runPQL(t, nil, "SELECT country FROM events", Options{})
	if len(res.Rows) != 0 {
		t.Fatalf("empty selection rows = %v", res.Rows)
	}
}

func TestMergeShapeMismatch(t *testing.T) {
	a := NewAggIntermediate([]pql.Expression{{IsAgg: true, Func: pql.Count, Column: "*"}})
	b := &Intermediate{Kind: KindSelection}
	if err := a.Merge(b); err == nil {
		t.Fatal("shape mismatch merge accepted")
	}
	c := NewAggIntermediate([]pql.Expression{{IsAgg: true, Func: pql.Count, Column: "*"}, {IsAgg: true, Func: pql.Sum, Column: "x"}})
	if err := a.Merge(c); err == nil {
		t.Fatal("arity mismatch merge accepted")
	}
	if err := a.Merge(nil); err != nil {
		t.Fatal("nil merge should be a no-op")
	}
	// An aggregation without GROUP BY is exactly one row, or does not conform.
	q, _ := pql.Parse("SELECT count(*) FROM events")
	if err := a.Conforms(q); err != nil {
		t.Fatal(err)
	}
	for name, groups := range map[string]*GroupTable{"no table": nil, "two rows": {aggs: a.Groups.aggs, n: 2}} {
		r := &Intermediate{Kind: KindGroupBy, AggExprs: a.AggExprs, Groups: groups}
		if r.Conforms(q) == nil {
			t.Errorf("%s: conforms to an aggregation without GROUP BY", name)
		}
	}
}

func BenchmarkCountStarNoFilter(b *testing.B) {
	rows := testRows(100000, 20)
	seg := buildRows(b, rows, segment.IndexConfig{}, "s0")
	segs := []IndexedSegment{{Seg: seg}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPQL(b, segs, "SELECT count(*) FROM events", Options{})
	}
}

func BenchmarkFilteredAggSorted(b *testing.B) {
	rows := testRows(100000, 21)
	seg := buildRows(b, rows, segment.IndexConfig{SortColumn: "memberId"}, "s0")
	segs := []IndexedSegment{{Seg: seg}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPQL(b, segs, "SELECT sum(clicks) FROM events WHERE memberId = 25", Options{})
	}
}

func BenchmarkFilteredAggInverted(b *testing.B) {
	rows := testRows(100000, 21)
	seg := buildRows(b, rows, segment.IndexConfig{InvertedColumns: []string{"memberId"}}, "s0")
	segs := []IndexedSegment{{Seg: seg}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPQL(b, segs, "SELECT sum(clicks) FROM events WHERE memberId = 25", Options{})
	}
}

func BenchmarkFilteredAggScan(b *testing.B) {
	rows := testRows(100000, 21)
	seg := buildRows(b, rows, segment.IndexConfig{}, "s0")
	segs := []IndexedSegment{{Seg: seg}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPQL(b, segs, "SELECT sum(clicks) FROM events WHERE memberId = 25", Options{})
	}
}

func BenchmarkGroupByStarTree(b *testing.B) {
	rows := testRows(100000, 22)
	seg := buildRows(b, rows, segment.IndexConfig{}, "s0")
	tree, err := startree.Build(seg, startree.Config{
		DimensionSplitOrder: []string{"browser", "country", "day"},
		Metrics:             []string{"clicks"},
		MaxLeafRecords:      1000,
	})
	if err != nil {
		b.Fatal(err)
	}
	segs := []IndexedSegment{{Seg: seg, Tree: tree}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runPQL(b, segs, "SELECT sum(clicks) FROM events WHERE browser = 'chrome' GROUP BY country", Options{})
	}
}

func TestPercentileAggregation(t *testing.T) {
	rows := testRows(1000, 30)
	var segs []IndexedSegment
	for i := 0; i < 2; i++ {
		segs = append(segs, IndexedSegment{Seg: buildRows(t, rows[i*500:(i+1)*500], segment.IndexConfig{}, fmt.Sprintf("s%d", i))})
	}
	res := runPQL(t, segs, "SELECT percentile50(clicks), percentile95(clicks) FROM events WHERE country = 'us'", Options{})
	var clicks []float64
	for _, r := range rows {
		if r.country == "us" {
			clicks = append(clicks, float64(r.clicks))
		}
	}
	sort.Float64s(clicks)
	nearestRank := func(q int) float64 {
		rank := (q*len(clicks) + 99) / 100
		if rank < 1 {
			rank = 1
		}
		return clicks[rank-1]
	}
	if got := res.Rows[0][0].(float64); got != nearestRank(50) {
		t.Fatalf("p50 = %v, want %v", got, nearestRank(50))
	}
	if got := res.Rows[0][1].(float64); got != nearestRank(95) {
		t.Fatalf("p95 = %v, want %v", got, nearestRank(95))
	}
	// Group-by with percentiles merges raw values across segments.
	gres := runPQL(t, segs, "SELECT percentile90(revenue) FROM events GROUP BY browser TOP 100", Options{})
	byBrowser := map[string][]float64{}
	for _, r := range rows {
		byBrowser[r.browser] = append(byBrowser[r.browser], r.rev)
	}
	for _, row := range gres.Rows {
		vals := byBrowser[row[0].(string)]
		sort.Float64s(vals)
		rank := (90*len(vals) + 99) / 100
		want := vals[rank-1]
		if got := row[1].(float64); got != want {
			t.Fatalf("p90(%v) = %v, want %v", row[0], got, want)
		}
	}
	// Percentiles never use star trees or metadata plans.
	if res.Stats.MetadataOnlySegments != 0 {
		t.Fatal("percentile answered from metadata")
	}
	// Invalid quantiles are rejected by the parser.
	for _, bad := range []string{"percentile0", "percentile100", "percentile12x", "percentile"} {
		if _, err := pql.Parse("SELECT " + bad + "(clicks) FROM events"); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}

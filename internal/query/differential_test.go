// The differential harness: a table of plan rungs, a seeded query pool per
// fixture, two references. Each query of a case runs under the default plan
// and under every rung the case names. A rung is held to the rung named in its
// vs: the same rows or error, and the same Stats but in the fields its drift
// declares, each only the way declared. Every answer is also held to
//
//   - the golden: per query, a digest of every rung's finalized result (Stats
//     but GroupStateBytes and NumEntriesScanned included, QueryID and Trace
//     cleared) or error, kept
//     in goldenPath;
//     PINOT_PRINT_GOLDEN=1 rewrites the file instead of checking it, and
//   - the oracle (oracle_test.go), which evaluates every document without a
//     planner: the rows, and NumDocsScanned, NumSegmentsMatched and TotalDocs
//     of every rung that answered without a star-tree or a metadata plan.
//
// A new rung is a row of rungs; a new fixture is a case.
package query_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pinot/internal/qctx"
	"pinot/internal/query"
	"pinot/internal/segment"
	"pinot/internal/workload"
)

// drift is how a Stats field of a rung may move against the rung it is held to.
type drift int

const (
	less drift = iota + 1
	more
	either
	zero // the rung reads zero
)

type rung struct {
	name, vs string
	force    func(*query.Options)
	drift    map[string]drift
}

var rungs = []rung{
	{name: "default", force: func(*query.Options) {}},
	// Dictionary space may prove a segment empty, or matched by every
	// document so a metadata plan answers it, where the row path scans.
	{name: "row path", vs: "default", force: func(o *query.Options) { *o = query.ForceRungs(*o, true) },
		drift: map[string]drift{"DictExprSegments": zero, "NumDocsScanned": more, "NumEntriesScanned": either,
			"NumSegmentsMatched": either, "MetadataOnlySegments": either, "GroupStateBytes": either,
			"SegmentsPrunedByServer": either, "SegmentsPrunedByValue": either, "SegmentsMatched": either}},
	// Pruning changes how a segment is answered, never whether it counts.
	{name: "pruning off", vs: "default", force: func(o *query.Options) { o.DisablePruning = true },
		drift: map[string]drift{"NumDocsScanned": more, "NumEntriesScanned": more, "MetadataOnlySegments": less,
			"GroupStateBytes": more, "SegmentsPrunedByServer": zero, "SegmentsPrunedByValue": zero, "SegmentsMatched": zero}},
	// The Druid baseline: bitmaps wherever an inverted index exists; no sort
	// order, star-tree or metadata plan.
	{name: "druid", vs: "default", force: func(o *query.Options) {
		o.ForceBitmap, o.DisableSorted, o.DisableStarTree, o.DisableMetadataPlans = true, true, true, true
	}, drift: map[string]drift{"NumDocsScanned": more, "NumEntriesScanned": either, "MetadataOnlySegments": zero}},
}

// diffCase is a fixture and its query pool.
type diffCase struct {
	name    string
	segs    []query.IndexedSegment
	schema  *segment.Schema
	rungs   []string // besides the default, each after the rung it is held to
	queries []string
	// minDictSegments is how many segment executions dictionary space must
	// serve across the case under the default plan.
	minDictSegments int
}

// outcome is one rung's answer to one query: the result and its JSON with
// Stats zeroed, or the error.
type outcome struct {
	res  *query.Result
	body string
}

func ask(t *testing.T, q string, segs []query.IndexedSegment, schema *segment.Schema, opt query.Options) outcome {
	res, err := query.Run(context.Background(), q, segs, schema, opt)
	if err != nil {
		return outcome{body: "error: " + err.Error()}
	}
	stats := res.Stats
	res.Stats, res.QueryID, res.Trace = query.Stats{}, "", qctx.Trace{}
	body, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	res.Stats = stats
	return outcome{res, string(body)}
}

// hold checks got, a rung's outcome, against want, the outcome of the rung
// it is held to.
func hold(t *testing.T, label string, r rung, got, want outcome) {
	if got.body != want.body {
		t.Fatalf("%s: results diverge:\n%s: %s\n%s: %s", label, r.vs, want.body, r.name, got.body)
	}
	if got.res == nil {
		return
	}
	gv, wv := reflect.ValueOf(got.res.Stats), reflect.ValueOf(want.res.Stats)
	for i := 0; i < gv.NumField(); i++ {
		name, g, w := gv.Type().Field(i).Name, gv.Field(i), wv.Field(i)
		ok := g.Equal(w)
		switch r.drift[name] {
		case less:
			ok = g.Int() <= w.Int()
		case more:
			ok = g.Int() >= w.Int()
		case either:
			ok = true
		case zero:
			ok = g.IsZero()
		}
		if !ok {
			t.Fatalf("%s: Stats.%s may not move so:\n%s: %+v\n%s: %+v", label, name, r.vs, want.res.Stats, r.name, got.res.Stats)
		}
	}
}

// check runs one query of c under each of its rungs, holds every outcome to
// its rung's reference and to the oracle, and returns the digest of them all.
func (c *diffCase) check(t *testing.T, oracle *query.Oracle, label, q string) (digest string, dictSegments int) {
	outcomes := map[string]outcome{}
	h := sha256.New()
	for _, name := range append([]string{"default"}, c.rungs...) {
		r, opt := rungs[slices.IndexFunc(rungs, func(r rung) bool { return r.name == name })], query.Options{}
		r.force(&opt)
		o := ask(t, q, c.segs, c.schema, opt)
		outcomes[name] = o
		if r.vs != "" {
			hold(t, label+" under "+name, r, o, outcomes[r.vs])
		}
		if o.res == nil {
			fmt.Fprintf(h, "%s\n%s\n", name, o.body)
			continue
		}
		// GroupStateBytes is a size, not a count of work, and
		// NumEntriesScanned counts what the filter's kernels tested, which a
		// faster conjunction may change: the digest leaves both out, hold's
		// drift table still constrains them between rungs, and the filter
		// tests pin the entries count exactly.
		s := o.res.Stats
		digested := s
		digested.GroupStateBytes, digested.NumEntriesScanned = 0, 0
		fmt.Fprintf(h, "%s\n%s\n%+v\n", name, o.body, digested)
		// Pruning puts every candidate segment in exactly one bucket.
		if n := s.SegmentsPrunedByServer + s.SegmentsPrunedByValue + s.SegmentsMatched; !opt.DisablePruning && n != len(c.segs) {
			t.Fatalf("%s under %s: %d of %d candidates accounted for: %+v", label, name, n, len(c.segs), s)
		}
	}
	holdToOracle(t, label, oracle, q, outcomes)
	if def := outcomes["default"].res; def != nil {
		dictSegments = def.Stats.DictExprSegments
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), dictSegments
}

// holdToOracle holds every result among outcomes that no star-tree or
// metadata plan answered to the oracle's answer to q: the same rows, and the
// same NumDocsScanned, NumSegmentsMatched and TotalDocs.
func holdToOracle(t *testing.T, label string, oracle *query.Oracle, q string, outcomes map[string]outcome) {
	var want *query.Result
	for name, o := range outcomes {
		if o.res == nil || o.res.Stats.StarTreeSegments > 0 || o.res.Stats.MetadataOnlySegments > 0 {
			continue
		}
		if want == nil {
			var err error
			if want, err = oracle.Answer(q); err != nil {
				t.Fatalf("%s: the engine answers, the oracle fails: %v", label, err)
			}
		}
		s, w := o.res.Stats, want.Stats
		gj, _ := json.Marshal([]any{o.res.Columns, o.res.Rows})
		wj, _ := json.Marshal([]any{want.Columns, want.Rows})
		if string(gj) != string(wj) || s.NumDocsScanned != w.NumDocsScanned || s.NumSegmentsMatched != w.NumSegmentsMatched || s.TotalDocs != w.TotalDocs {
			t.Fatalf("%s under %s: diverges from the oracle:\nengine: %s %+v\noracle: %s %+v", label, name, gj, s, wj, w)
		}
	}
}

const goldenPath = "testdata/differential.golden"

func TestDifferential(t *testing.T) {
	golden := map[string][]string{}    // case → digest per query
	data, _ := os.ReadFile(goldenPath) // none: every case reports its digests missing
	for f := strings.Fields(string(data)); len(f) >= 2; f = f[2:] {
		golden[f[0]] = append(golden[f[0]], f[1])
	}
	record := os.Getenv("PINOT_PRINT_GOLDEN") != ""
	var out strings.Builder
	for _, c := range diffCases(t) {
		t.Run(c.name, func(t *testing.T) {
			want, dictSegments, oracle := golden[c.name], 0, query.NewOracle(c.segs, c.schema)
			if !record && len(want) != len(c.queries) {
				t.Errorf("the golden holds %d digests for %d queries", len(want), len(c.queries))
			}
			for i, q := range c.queries {
				query.SentAsParsed(t, q)
				digest, n := c.check(t, oracle, fmt.Sprintf("%s #%d %q", c.name, i, q), q)
				dictSegments += n
				fmt.Fprintf(&out, "%s %s\n", c.name, digest)
				if !record && i < len(want) && digest != want[i] {
					t.Errorf("#%d %q: digest %s, golden %s", i, q, digest, want[i])
				}
			}
			if dictSegments < c.minDictSegments {
				t.Fatalf("dictionary space served %d segment executions, want at least %d", dictSegments, c.minDictSegments)
			}
		})
	}
	if record {
		if err := os.WriteFile(goldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// ---- fixtures ----

func diffCases(t *testing.T) []*diffCase {
	var cases []*diffCase
	anomaly := workload.Anomaly(workload.SizeConfig{Segments: 2, RowsPerSegment: 4000, Seed: 11})
	wvmp := workload.ShareAnalytics(workload.SizeConfig{Segments: 2, RowsPerSegment: 4000, Seed: 7})
	for _, w := range []struct {
		d    *workload.Dataset
		seed int64
		v    workload.Variant
	}{
		{anomaly, 1234, workload.Variant{Name: "noindex"}},
		{anomaly, 1234, workload.Variant{Name: "inverted", Index: segment.IndexConfig{InvertedColumns: anomaly.InvertedColumns}}},
		{wvmp, 4321, workload.Variant{Name: "noindex"}},
		{wvmp, 4321, workload.Variant{Name: "sorted", Index: segment.IndexConfig{SortColumn: "vieweeId"}}},
		{wvmp, 4321, workload.Variant{Name: "inverted", Index: segment.IndexConfig{InvertedColumns: wvmp.InvertedColumns}}},
	} {
		segs, _, err := w.d.BuildIndexed(w.v)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, &diffCase{name: w.d.Name + "/" + w.v.Name, segs: segs, schema: w.d.Schema, queries: w.d.Queries(70, w.seed)})
	}
	cases = append(append(cases, mixedCases(t)...), exprCase(t), dictCase(t), pruneCase(t))
	tables, trees := query.ScanTrees(t)
	for _, name := range slices.Sorted(maps.Keys(tables)) {
		cases = append(cases, &diffCase{name: "trees/" + name, segs: tables[name], queries: trees})
	}
	return cases
}

// diffSchema is the mixed fixture's: a multi-value string dimension, low- and
// mid-cardinality single-value dimensions, raw long and double metrics and a
// time column.
func diffSchema(t *testing.T) *segment.Schema {
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

// diffSegment builds a segment of the mixed fixture's rows drawn from r: a
// consuming one's snapshot, or what sealing it under cfg makes.
func diffSegment(t *testing.T, r *rand.Rand, schema *segment.Schema, name string, cfg segment.IndexConfig, rows int, consuming bool) query.IndexedSegment {
	ms, err := segment.NewMutableSegment("difftbl", name, schema, cfg)
	for i := 0; err == nil && i < rows; i++ {
		tags := make([]string, 1+r.Intn(3))
		for j := range tags {
			tags[j] = fmt.Sprintf("tag%d", r.Intn(12))
		}
		err = ms.Add(segment.Row{fmt.Sprintf("cat%d", r.Intn(6)), int64(r.Intn(40)), tags, int64(r.Intn(1000)),
			float64(r.Intn(10000)) / 8, int64(17000 + r.Intn(14))})
	}
	if err != nil {
		t.Fatal(err)
	}
	if consuming {
		return query.IndexedSegment{Seg: ms.Snapshot()}
	}
	seg, err := ms.Seal()
	if err != nil {
		t.Fatal(err)
	}
	return query.IndexedSegment{Seg: seg}
}

// mixedSegments builds from r a plain and an inverted immutable segment of
// rows rows each, and a consuming one of rt rows.
func mixedSegments(t *testing.T, r *rand.Rand, schema *segment.Schema, prefix string, rows, rt int, inverted ...string) []query.IndexedSegment {
	return []query.IndexedSegment{
		diffSegment(t, r, schema, prefix+"_plain", segment.IndexConfig{}, rows, false),
		diffSegment(t, r, schema, prefix+"_inv", segment.IndexConfig{InvertedColumns: inverted}, rows, false),
		diffSegment(t, r, schema, prefix+"_rt", segment.IndexConfig{}, rt, true),
	}
}

// mixedCases: aggregations, group-bys hitting the dense, packed and string
// groupers, selections with ORDER BY / OFFSET, multi-value, NOT and
// raw-metric predicates; scan leaves under AND, OR and NOT, over a fourth
// segment sorted on bucket too; schema-evolution default columns; the Druid
// baseline.
func mixedCases(t *testing.T) []*diffCase {
	schema := diffSchema(t)
	r := rand.New(rand.NewSource(99))
	segs := mixedSegments(t, r, schema, "diff", 3000, 1500, "category", "tags", "bucket")
	queries := diffQueries(r, 60)
	all := append(segs[:3:3], diffSegment(t, r, schema, "diff_sorted", segment.IndexConfig{SortColumn: "bucket"}, 3000, false))
	extended, err := schema.WithColumn(segment.FieldSpec{Name: "region", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true})
	if err != nil {
		t.Fatal(err)
	}
	evolved, err := extended.WithColumn(segment.FieldSpec{Name: "bonus", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true})
	if err != nil {
		t.Fatal(err)
	}
	var trees, defaults []string
	for _, where := range scanLeafTrees() {
		trees = append(trees, "SELECT count(*), sum(score) FROM difftbl WHERE "+where, "SELECT category, hits FROM difftbl WHERE "+where+" LIMIT 7")
	}
	for _, where := range []string{"bonus >= 0 AND hits < 600", "hits < 600 AND bonus IN (0, 5)", "bonus + hits > 500 AND score > 300.5",
		"NOT (bonus > 3 OR category = 'cat2')", "bucket = 12 AND bonus + bucket < 13", "region != 'x' AND hits + bonus < 100 AND score * 2 < hits"} {
		defaults = append(defaults, "SELECT count(*), sum(bonus) FROM difftbl WHERE "+where, "SELECT category, bonus FROM difftbl WHERE "+where+" LIMIT 7")
	}
	return []*diffCase{
		{name: "mixed", segs: segs, schema: schema, queries: queries},
		{name: "mixed/extended", segs: segs, schema: extended, queries: []string{
			"SELECT * FROM difftbl LIMIT 25",
			"SELECT sum(hits) FROM difftbl WHERE region = 'null' GROUP BY region, category TOP 10",
			"SELECT count(*) FROM difftbl WHERE region != 'x'",
			"SELECT * FROM difftbl WHERE score >= 0 ORDER BY hits LIMIT 3, 9",
			"SELECT sum(score) FROM difftbl WHERE category = 'cat0' OR category = 'cat1' OR bucket = 3",
			"SELECT count(*) FROM difftbl WHERE category = 'cat2' AND bucket BETWEEN 0 AND 30 AND tags = 'tag1'",
			"SELECT category, bucket FROM difftbl WHERE bucket = 12 LIMIT 0",
		}},
		{name: "mixed/trees", segs: all, schema: schema, queries: trees},
		{name: "mixed/evolved", segs: all, schema: evolved, queries: defaults},
		{name: "mixed/druid", segs: all, schema: schema, rungs: []string{"druid"}, queries: queries[:30]},
	}
}

// exprCase: expression aggregation inputs, filters and group keys (the
// single-long path among them), and hand-picked edges: string builtins,
// constant-width division, NOT over derived columns, string ops beside
// numeric kernels. The row path rung holds kernels over dictionary columns
// to the memo.
func exprCase(t *testing.T) *diffCase {
	schema := diffSchema(t)
	r := rand.New(rand.NewSource(271))
	segs := mixedSegments(t, r, schema, "ediff", 2500, 1200, "category", "bucket")
	return &diffCase{name: "expr", segs: segs, schema: schema, rungs: []string{"row path"}, queries: append(exprDiffQueries(r, 220),
		"SELECT count(*) FROM difftbl WHERE lower(category) = 'cat3'",
		"SELECT sum(hits) FROM difftbl WHERE concat(category, '-', bucket) = 'cat1-3' GROUP BY category TOP 5",
		"SELECT sum(hits + 0) FROM difftbl",
		"SELECT sum(hits) FROM difftbl WHERE hits - hits = 0",
		"SELECT count(*) FROM difftbl WHERE NOT abs(hits - 500) > 400",
		"SELECT count(*) FROM difftbl WHERE score / 0 > hits", // +Inf, compared: an Inf aggregate has no JSON
		"SELECT sum(hits) FROM difftbl GROUP BY timeBucket(day, 1) TOP 20",
		"SELECT count(*) FROM difftbl WHERE timeBucket(day, 7) <> timeBucket(day, 14)",
		"SELECT max(abs(score) * 2 - abs(hits)) FROM difftbl WHERE score / 2 > hits / 3",
	)}
}

// dictCase: dictionary-space shapes and near misses, and hand-picked edges: type errors, Unicode probe targets, constant sides, both
// ExprCompare orientations, all-match under NOT.
func dictCase(t *testing.T) *diffCase {
	schema := diffSchema(t)
	r := rand.New(rand.NewSource(977))
	segs := mixedSegments(t, r, schema, "ddiff", 2500, 1200, "category", "bucket")
	return &diffCase{name: "dict", segs: segs, schema: schema,
		rungs: []string{"row path"}, minDictSegments: 150, queries: append(dictDiffQueries(r, 230),
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
		)}
}

// pruneCase: the prune corpus, whose segments hold disjoint value ranges, and
// a consuming segment, which is never pruned.
func pruneCase(t *testing.T) *diffCase {
	segs, schema := query.PruneCorpus(t, 5, 500), query.PruneCorpusSchema(t)
	ms, err := segment.NewMutableSegment("ptbl", "ptbl_rt", schema, segment.IndexConfig{})
	r := rand.New(rand.NewSource(123))
	for i := 0; err == nil && i < 400; i++ {
		err = ms.Add(segment.Row{fmt.Sprintf("cat%d", r.Intn(15)), int64(r.Intn(500)), []string{fmt.Sprintf("tag%d", r.Intn(6))},
			int64(r.Intn(1000)), int64(17000 + r.Intn(50))})
	}
	if err != nil {
		t.Fatal(err)
	}
	segs = append(segs, query.IndexedSegment{Seg: ms.Snapshot()})
	return &diffCase{name: "prune", segs: segs, schema: schema, rungs: []string{"pruning off"}, queries: prunedDiffQueries(r, 220)}
}

// ---- query generators ----

// draw samples query text from r. Each generator below picks one of a few
// formats and fills its verbs left to right: an int k draws r.Intn(k), a
// span lo + r.Intn(n), a pick one of its strings, a func what it returns.
type draw struct{ r *rand.Rand }

type span struct{ lo, n int }

type pick []string

func (d draw) oneOf(fs ...func() string) string { return fs[d.r.Intn(len(fs))]() }

func (d draw) f(format string, args ...any) func() string {
	return func() string {
		vals := make([]any, len(args))
		for i, a := range args {
			switch a := a.(type) {
			case int:
				vals[i] = d.r.Intn(a)
			case span:
				vals[i] = a.lo + d.r.Intn(a.n)
			case pick:
				vals[i] = a[d.r.Intn(len(a))]
			case func() string:
				vals[i] = a()
			}
		}
		return fmt.Sprintf(format, vals...)
	}
}

// queries returns n draws of oneOf(fs...).
func (d draw) queries(n int, fs ...func() string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = d.oneOf(fs...)
	}
	return out
}

// weeks are the three timeBucket(day, 7) values of the mixed fixture's days.
var weeks = pick{"16996", "17003", "17010"}

// diffQueries samples queries over the mixed fixture.
func diffQueries(r *rand.Rand, n int) []string {
	d := draw{r}
	where := func() string {
		return d.oneOf(d.f(" WHERE category = 'cat%d'", 7), d.f(" WHERE tags = 'tag%d'", 13),
			d.f(" WHERE bucket BETWEEN %d AND %d", 20, span{20, 20}), d.f(" WHERE score > %d.5", 1200),
			d.f(" WHERE hits <= %d", 1000), d.f(" WHERE NOT tags IN ('tag%d', 'tag%d')", 12, 12),
			d.f(" WHERE category != 'cat%d' AND day >= %d", 6, span{17000, 14}), d.f(""))
	}
	return d.queries(n,
		d.f("SELECT sum(score), count(*) FROM difftbl%s", where),
		d.f("SELECT min(score), max(hits), avg(score) FROM difftbl%s", where),
		d.f("SELECT percentile95(score), distinctcount(bucket) FROM difftbl%s", where),
		d.f("SELECT sum(hits) FROM difftbl%s GROUP BY category TOP %d", where, span{1, 10}),
		d.f("SELECT count(*), sum(score) FROM difftbl%s GROUP BY category, bucket TOP %d", where, span{1, 12}),
		d.f("SELECT category, score, tags FROM difftbl%s LIMIT %d", where, 30),
		d.f("SELECT category, hits FROM difftbl%s ORDER BY score DESC, category LIMIT %d, %d", where, 5, span{1, 20}))
}

// scanLeafTrees lists the filter shapes whose scan leaves sit under an AND,
// OR or NOT: 2- and 3-leaf trees over every scan-leaf kind (dictionary =,
// range, IN and NOT IN; raw long and double metric; compiled expression
// comparison), each also negated, bare and behind the two narrow drivers. On
// the fixture's segments `bucket = 12` is a sorted range, a bitmap or a scan,
// and `category = 'cat1'` a bitmap or a scan.
func scanLeafTrees() []string {
	leaves := []string{"category = 'cat2'", "bucket BETWEEN 5 AND 25", "category IN ('cat1', 'cat3', 'cat9')",
		"bucket NOT IN (3, 7, 11)", "day != 17003", "hits < 600", "hits IN (1, 17, 333, 420)", "score > 300.5",
		"score BETWEEN 100 AND 900.25", "hits + bucket > 500", "score * 2 < hits"}
	var trees []string
	for i, a := range leaves {
		for j, b := range leaves[i+1:] {
			trees = append(trees, a+" AND "+b, a+" OR "+b)
			if c := leaves[(2*i+j+1)%len(leaves)]; c != a && c != b {
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

// exprDiffQueries samples expression-bearing queries over the mixed fixture.
func exprDiffQueries(r *rand.Rand, n int) []string {
	d := draw{r}
	num := func() string {
		return d.oneOf(d.f("hits + %d", 50), d.f("(hits - %d) * %d", 500, span{1, 4}), d.f("score * %d.5", 3),
			d.f("abs(score - %d)", 1000), d.f("abs(hits - %d)", 1000), d.f("hits / %d", span{1, 9}),
			d.f("timeBucket(day, %d)", span{1, 10}), d.f("bucket * %d + hits", span{1, 5}))
	}
	where := func() string {
		return d.oneOf(d.f(" WHERE hits + bucket > %d", 1000), d.f(" WHERE abs(score - %d) < %d", 1200, span{100, 400}),
			d.f(" WHERE timeBucket(day, 7) = %s", weeks), d.f(" WHERE upper(category) = 'CAT%d'", 7),
			d.f(" WHERE concat(category, '-', bucket) = 'cat%d-%d'", 6, 40), d.f(" WHERE hits * 2 <= score + %d", 500),
			// An expression leaf beside index-friendly leaves: pruning and
			// bitmap collapse meet the expression filter.
			d.f(" WHERE category = 'cat%d' AND hits - %d >= 0", 6, 800), d.f(" WHERE NOT (hits + %d < score)", 300), d.f(""))
	}
	groupBy := func() string {
		return d.oneOf(d.f(" GROUP BY timeBucket(day, %d)", span{1, 10}), d.f(" GROUP BY concat(category, bucket)"),
			d.f(" GROUP BY category, timeBucket(day, %d)", span{2, 6}), d.f(" GROUP BY lower(category)"))
	}
	return d.queries(n,
		d.f("SELECT sum(%s), count(*) FROM difftbl%s", num, where),
		d.f("SELECT min(%s), max(%s) FROM difftbl%s", num, num, where),
		d.f("SELECT avg(%s) FROM difftbl%s", num, where),
		d.f("SELECT distinctcount(timeBucket(day, %d)) FROM difftbl%s", span{1, 6}, where),
		d.f("SELECT sum(%s) FROM difftbl%s%s TOP %d", num, where, groupBy, span{1, 12}),
		d.f("SELECT count(*), sum(hits) FROM difftbl%s%s TOP %d", where, groupBy, span{1, 10}))
}

// dictDiffQueries samples queries biased toward dictionary-space shapes —
// single-column deterministic expressions on category (string, card 6),
// bucket (long, card 40) and day (long, card 14) as probes, memos, group keys
// and aggregate arguments — mixed with ineligible ones.
func dictDiffQueries(r *rand.Rand, n int) []string {
	d := draw{r}
	where := func() string {
		return d.oneOf(d.f(" WHERE upper(category) = 'CAT%d'", 7), d.f(" WHERE lower(category) <> 'cat%d'", 7),
			d.f(" WHERE upper(category) = 'cat%d'", 6), // not a fixed point: matches nothing, prunes
			d.f(" WHERE concat(category, '-tail') = 'cat%d-tail'", 6),
			d.f(" WHERE timeBucket(day, %d) = %d", span{1, 10}, span{16996, 30}),
			d.f(" WHERE bucket * 3 - %d > %d", 40, 80), d.f(" WHERE abs(bucket - %d) <= %d", 40, 15),
			d.f(" WHERE lower(category) = 'cat%d' AND bucket < %d", 6, 45),
			d.f(" WHERE upper(category) = 'CAT%d' OR timeBucket(day, 7) = %s", 6, weeks),
			d.f(" WHERE NOT (concat(category, '%d') = 'cat1%d')", 4, 4),
			d.f(" WHERE hits + bucket > %d", 1000), // multi-column: not dict-eligible
			d.f(""))
	}
	groupBy := func() string {
		return d.oneOf(d.f(" GROUP BY lower(category)"), d.f(" GROUP BY timeBucket(day, %d)", span{1, 10}),
			d.f(" GROUP BY concat(category, '_sfx')"), d.f(" GROUP BY abs(bucket - %d)", 40),
			d.f(" GROUP BY category, timeBucket(day, %d)", span{2, 6}))
	}
	return d.queries(n,
		d.f("SELECT count(*), sum(hits) FROM difftbl%s", where),
		d.f("SELECT min(bucket * %d), max(abs(bucket - %d)) FROM difftbl%s", span{1, 5}, 40, where),
		d.f("SELECT distinctcount(concat(category, '%d')) FROM difftbl%s", 9, where),
		d.f("SELECT avg(timeBucket(day, %d)) FROM difftbl%s", span{1, 8}, where),
		d.f("SELECT sum(hits) FROM difftbl%s%s TOP %d", where, groupBy, span{1, 12}),
		d.f("SELECT count(*) FROM difftbl%s%s TOP %d", where, groupBy, span{1, 10}))
}

// prunedDiffQueries samples queries over the prune corpus whose WHERE clauses
// make all three prune outcomes occur across segments.
func prunedDiffQueries(r *rand.Rand, n int) []string {
	d := draw{r}
	where := func() string {
		return d.oneOf(d.f(" WHERE category = 'cat%d'", 16), d.f(" WHERE day BETWEEN %d AND %d", span{17000, 45}, span{17000, 45}),
			d.f(" WHERE bucket BETWEEN %d AND %d", span{-50, 500}, 550), d.f(" WHERE tags = 'tag%d'", 7),
			d.f(" WHERE NOT tags IN ('tag%d', 'tag%d')", 6, 6), d.f(" WHERE category != 'cat%d' AND day >= %d", 16, span{17000, 40}),
			d.f(" WHERE bucket IN (%d, %d) OR category = 'cat%d'", 450, 450, 16),
			d.f(" WHERE hits < %d AND bucket >= %d", 1100, 450), d.f(""))
	}
	return d.queries(n,
		d.f("SELECT count(*), sum(hits) FROM ptbl%s", where),
		d.f("SELECT min(hits), max(hits), avg(hits) FROM ptbl%s", where),
		d.f("SELECT distinctcount(bucket) FROM ptbl%s", where),
		d.f("SELECT sum(hits) FROM ptbl%s GROUP BY category TOP %d", where, span{1, 10}),
		d.f("SELECT category, bucket, hits FROM ptbl%s ORDER BY hits DESC, bucket LIMIT %d", where, span{1, 25}),
		d.f("SELECT count(*) FROM ptbl%s GROUP BY category, bucket TOP %d", where, span{1, 12}))
}

package query

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"pinot/internal/metrics"
	"pinot/internal/pql"
	"pinot/internal/qcache"
	"pinot/internal/segment"
	"pinot/internal/startree"
)

// poolSegments builds four segments for every group-by plan: country and
// browser (the split dimensions of the star tree the first two carry),
// memberId, clicks, revenue and day, and five long columns k0..k4 of 9000
// distinct values each, too wide to pack their ids into one uint64.
func poolSegments(t testing.TB) []IndexedSegment {
	t.Helper()
	fields := []segment.FieldSpec{
		{Name: "country", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "browser", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "memberId", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
	}
	for c := 0; c < 5; c++ {
		fields = append(fields, segment.FieldSpec{Name: fmt.Sprintf("k%d", c), Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true})
	}
	fields = append(fields,
		segment.FieldSpec{Name: "clicks", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
		segment.FieldSpec{Name: "revenue", Type: segment.TypeDouble, Kind: segment.Metric, SingleValue: true},
		segment.FieldSpec{Name: "day", Type: segment.TypeLong, Kind: segment.Time, SingleValue: true})
	schema, err := segment.NewSchema("pool", fields)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 9000
	countries := []string{"us", "de", "fr", "in", "br", "jp", "uk"}
	browsers := []string{"chrome", "firefox", "safari", "edge"}
	r := rand.New(rand.NewSource(7))
	var segs []IndexedSegment
	for s := 0; s < 4; s++ {
		b, err := segment.NewBuilder("pool", fmt.Sprintf("pool_%d", s), schema, segment.IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			row := segment.Row{countries[r.Intn(len(countries))], browsers[r.Intn(len(browsers))], int64(r.Intn(50))}
			for c, p := range []int{7, 11, 13, 17, 19} {
				row = append(row, int64((i*p+s*c)%rows))
			}
			row = append(row, int64(r.Intn(100)), float64(r.Intn(1000))/10, int64(15000+r.Intn(30)))
			if err := b.Add(row); err != nil {
				t.Fatal(err)
			}
		}
		seg, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		is := IndexedSegment{Seg: seg}
		if s < 2 {
			if is.Tree, err = startree.Build(seg, startree.Config{DimensionSplitOrder: []string{"country", "browser"}, Metrics: []string{"clicks"}}); err != nil {
				t.Fatal(err)
			}
		}
		segs = append(segs, is)
	}
	return segs
}

// poolQueries draws n queries from templates of every group-by plan and key
// shape, each parameter from a few values so that queries repeat and the
// aggregate cache both misses and hits.
func poolQueries(r *rand.Rand, n int) []string {
	templates := []func(p int) string{
		func(p int) string { // one dictionary key: dense
			return fmt.Sprintf("SELECT count(*), sum(clicks) FROM pool WHERE memberId < %d GROUP BY country", 10+p*15)
		},
		func(p int) string { // two keys packed into one uint64
			return fmt.Sprintf("SELECT sum(revenue), max(clicks) FROM pool WHERE day BETWEEN 15000 AND %d GROUP BY country, browser TOP 50", 15005+p*8)
		},
		func(p int) string { // five keys too wide to pack, up to more than maxPooledGroups a segment
			return fmt.Sprintf("SELECT count(*), min(revenue) FROM pool WHERE k0 < %d GROUP BY k0, k1, k2, k3, k4 TOP 30", []int{200, 1500, 5000}[p])
		},
		func(p int) string { // expression keys
			return []string{
				"SELECT count(*), avg(revenue) FROM pool GROUP BY lower(country)",
				"SELECT sum(clicks) FROM pool WHERE clicks > 20 GROUP BY timeBucket(day, 7)",
				"SELECT count(*) FROM pool WHERE memberId < 20 GROUP BY concat(country, browser) TOP 40",
			}[p]
		},
		func(p int) string { // a key of an expression beside a column
			return fmt.Sprintf("SELECT min(clicks) FROM pool WHERE memberId > %d GROUP BY lower(country), browser TOP 40", 10*p)
		},
		func(p int) string { // sets and lists
			return fmt.Sprintf("SELECT distinctcount(browser), percentile90(revenue) FROM pool WHERE clicks > %d GROUP BY country", 30*p)
		},
		func(p int) string { // the star tree on the first two segments
			return fmt.Sprintf("SELECT count(*), sum(clicks) FROM pool WHERE browser = '%s' GROUP BY country", []string{"chrome", "edge", "safari"}[p])
		},
		func(p int) string { // metadata only, then without GROUP BY
			if p == 0 {
				return "SELECT count(*), min(clicks), max(clicks) FROM pool"
			}
			return fmt.Sprintf("SELECT sum(clicks), avg(revenue), distinctcount(country), percentile50(clicks) FROM pool WHERE memberId BETWEEN %d AND %d", p, 20*p)
		},
		func(p int) string { // a selection: per-segment results of the other kind
			return fmt.Sprintf("SELECT country, clicks, k1 FROM pool WHERE memberId = %d ORDER BY clicks LIMIT 15", p)
		},
	}
	out := make([]string, n)
	for i := range out {
		out[i] = templates[r.Intn(len(templates))](r.Intn(3))
	}
	return out
}

// TestPooledTablesNeverAlias runs a seeded mix of every group-by plan and key
// shape through one engine, aggregate cache on and two goroutines to a
// query, from four goroutines at once, so that each query's per-segment
// tables go back to the pools while others are filling theirs. Once every
// query has finished, each returned result must still encode to the bytes,
// and finalize to the Result, of its query run alone on a fresh engine
// (alone): a result that shared storage with a released table would have
// been written over by a later query.
func TestPooledTablesNeverAlias(t *testing.T) {
	segs := poolSegments(t)
	queries := poolQueries(rand.New(rand.NewSource(66)), 160)
	reg := metrics.NewRegistry()
	cache := qcache.New(qcache.Config{Tier: "aggregate", Metrics: reg})
	e := &Engine{AggCache: cache, parallelism: 2}
	parsed := map[string]*pql.Query{}
	for _, text := range queries {
		if parsed[text] == nil {
			q, err := pql.Parse(text)
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			parsed[text] = q
		}
	}
	results := make([]*Intermediate, len(queries))
	var wg sync.WaitGroup
	const workers = 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(queries); i += workers {
				res, excs, err := e.Execute(context.Background(), parsed[queries[i]], segs, nil)
				if err != nil || len(excs) > 0 {
					t.Errorf("%s: err = %v, exceptions = %v", queries[i], err, excs)
					return
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if reg.Value("pinot_cache_hits_total", "aggregate", "pool") == 0 {
		t.Fatalf("no aggregate cache hit in %d queries", len(queries))
	}
	var all Stats
	for _, r := range results {
		all.Merge(r.Stats)
	}
	if all.StarTreeSegments == 0 || all.MetadataOnlySegments == 0 {
		t.Fatalf("the mix ran %d star-tree and %d metadata-only segment plans, want some of each", all.StarTreeSegments, all.MetadataOnlySegments)
	}
	fresh := map[string]*Intermediate{}
	for i, text := range queries {
		q := parsed[text]
		want := fresh[text]
		if want == nil {
			want = alone(t, q, segs)
			fresh[text] = want
		}
		if got, w := mustEncode(t, results[i]), mustEncode(t, want); !bytes.Equal(got, w) {
			t.Errorf("query %d, %s: the result encodes to other bytes than a fresh run's", i, text)
			continue
		}
		if got, w := results[i].Finalize(q), want.Finalize(q); !reflect.DeepEqual(got, w) {
			t.Errorf("query %d, %s: finalized\n got %v\nwant %v", i, text, got.Rows, w.Rows)
		}
	}
}

// alone runs q on a fresh engine one segment at a time and merges the results
// in segment order: Execute's answer by a path on which no result is folded
// or released.
func alone(t *testing.T, q *pql.Query, segs []IndexedSegment) *Intermediate {
	t.Helper()
	e := &Engine{parallelism: 1}
	var merged *Intermediate
	for i := range segs {
		res, _, err := e.Execute(context.Background(), q, segs[i:i+1], nil)
		if err != nil {
			t.Fatal(err)
		}
		if merged == nil {
			merged = res
		} else if err := merged.Merge(res); err != nil {
			t.Fatal(err)
		}
	}
	return merged
}

// TestReleasePolicy: a table of more than maxPooledGroups rows is not
// pooled and keeps what it holds; a released table keeps no string header,
// value list or set, whatever its copy (exact) still answers.
func TestReleasePolicy(t *testing.T) {
	exprs := parsedAggs("SELECT count(*), percentile90(clicks), distinctcount(browser) FROM events GROUP BY country")
	fill := func(groups int) *GroupTable {
		g := scratchTable(1, exprs)
		for i := 0; i < groups; i++ {
			ord, err := g.Upsert([]any{fmt.Sprintf("c%d", i)})
			if err != nil {
				t.Fatal(err)
			}
			g.SetState(ord, 1, AggState{Values: []float64{float64(i)}})
			g.SetState(ord, 2, AggState{Distinct: map[string]struct{}{"chrome": {}}})
		}
		return g
	}
	big := fill(maxPooledGroups + 1)
	if big.release() {
		t.Fatalf("a table of %d groups was pooled", maxPooledGroups+1)
	}
	if big.Len() != maxPooledGroups+1 || big.keys[0].strs[0] != "c0" || big.aggs[2].set == nil {
		t.Fatalf("a table left to the collector was emptied")
	}

	g := fill(3)
	r := &Intermediate{Kind: KindGroupBy, AggExprs: exprs, GroupCols: []string{"country"}, Groups: g}
	want := mustEncode(t, r)
	r.Groups = g.exact()
	if !g.release() {
		t.Fatalf("a table of 3 groups was not pooled")
	}
	if g.n != 0 || len(g.slots) != 0 || g.keys[0].kind != keyUnset {
		t.Fatalf("released table: %d rows, %d slots, key kind %v", g.n, len(g.slots), g.keys[0].kind)
	}
	for _, s := range g.keys[0].strs[:cap(g.keys[0].strs)] {
		if s != "" {
			t.Fatalf("a released table keeps the string %q", s)
		}
	}
	for a := range g.aggs {
		c := &g.aggs[a]
		for _, vs := range c.values[:cap(c.values)] {
			if vs != nil {
				t.Fatalf("aggregate %d of a released table keeps the list %v", a, vs)
			}
		}
		if c.set != nil {
			t.Fatalf("aggregate %d of a released table keeps its set", a)
		}
	}
	if got := mustEncode(t, r); !bytes.Equal(got, want) {
		t.Fatalf("the copy of a released table encodes to\n%v\nwant\n%v", got, want)
	}
}

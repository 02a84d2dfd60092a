package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pinot/internal/pql"
	"pinot/internal/segment"
)

// SentAsParsed holds the data plane's request codec to what a server ran
// when it parsed the text the broker rendered: for the query of text and
// for both halves of its hybrid rewrite, the query that crosses the codec
// deep-equals what was sent and Parse of its rendering. Text Parse refuses
// never reaches a server and is skipped.
func SentAsParsed(t testing.TB, text string) {
	t.Helper()
	q, err := pql.Parse(text)
	if err != nil {
		return
	}
	for _, sent := range []*pql.Query{
		q,
		q.WithExtraFilter(pql.Comparison{Column: "day", Op: pql.OpLt, Value: int64(17005)}),
		q.WithExtraFilter(pql.Comparison{Column: "day", Op: pql.OpGte, Value: int64(17005)}),
	} {
		parsed, err := pql.Parse(sent.String())
		if err != nil {
			t.Fatalf("%q: the rendering %q does not parse: %v", text, sent, err)
		}
		got, err := decodeQuery(encodeQuery(t, sent))
		if err != nil {
			t.Fatalf("%q: %v", sent, err)
		}
		if !reflect.DeepEqual(got, parsed) || !reflect.DeepEqual(got, sent) {
			t.Fatalf("%q crosses the codec as %#v; sent %#v, parsed %#v", sent, got, sent, parsed)
		}
	}
}

// ForceRungs returns opt with expression rungs forced off, as the
// differential harness and the A/B benchmarks ask for them: interpreter
// evaluates every expression on the sandboxed per-row interpreter instead of
// a compiled block kernel, rowPath keeps expressions out of dictionary space.
func ForceRungs(opt Options, interpreter, rowPath bool) Options {
	opt.disableExprCompile, opt.disableDictExpr = interpreter, rowPath
	return opt
}

// BlockSize is how many documents the executors take a block at a time.
const BlockSize = blockSize

// The prune corpus of prune_test.go, for the differential harness.
var (
	PruneCorpus       = pruneCorpus
	PruneCorpusSchema = pruneCorpusSchema
)

// ScanTrees is the random scan trees' fixture for the differential harness:
// testRows(3000, 60) under every index configuration of allConfigs and, as a
// consuming segment inverted on country, the first 1200 of them; and 60 trees
// of randomScanTree, each under an aggregation, a group-by and a selection
// that stops inside a scan leaf's first chunk.
func ScanTrees(tb testing.TB) (tables map[string][]IndexedSegment, queries []string) {
	rows := testRows(3000, 60)
	tables = map[string][]IndexedSegment{}
	for name, cfg := range allConfigs() {
		tables[name] = []IndexedSegment{{Seg: buildRows(tb, rows, cfg, "s0")}}
	}
	ms, err := segment.NewMutableSegment("events", "rt0", rowsSchema(tb), segment.IndexConfig{InvertedColumns: []string{"country"}})
	for _, r := range rows[:1200] {
		if err == nil {
			err = ms.Add(segment.Row{r.country, r.browser, r.member, r.clicks, r.rev, r.day})
		}
	}
	if err != nil {
		tb.Fatal(err)
	}
	tables["consuming"] = []IndexedSegment{{Seg: ms.Snapshot()}}
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		where := randomScanTree(r, 3)
		queries = append(queries, "SELECT count(*), sum(revenue) FROM events WHERE "+where,
			"SELECT max(clicks) FROM events WHERE "+where+" GROUP BY country TOP 5",
			fmt.Sprintf("SELECT country, clicks FROM events WHERE %s LIMIT %d", where, 1+r.Intn(20)))
	}
	return tables, queries
}

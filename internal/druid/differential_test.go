package druid

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pinot/internal/query"
	"pinot/internal/segment"
	"pinot/internal/startree"
)

// diffCorpus builds a multi-segment dataset shared by both engines. The
// Pinot side additionally carries star-trees so the two engines genuinely
// take different plans (sorted/scan/star-tree vs forced bitmaps) over the
// same rows.
func diffCorpus(t *testing.T) (sch *segment.Schema, pinotSegs, druidSegs []query.IndexedSegment) {
	t.Helper()
	sch, err := segment.NewSchema("ev", []segment.FieldSpec{
		{Name: "country", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "device", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "memberId", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "clicks", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
		{Name: "day", Type: segment.TypeLong, Kind: segment.Time, SingleValue: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	countries := []string{"us", "de", "fr", "jp", "br"}
	devices := []string{"mobile", "desktop", "tablet"}
	idx := IndexConfig(sch)
	idx.SortColumn = "country" // Pinot's sorted fast path; Druid disables it
	rnd := rand.New(rand.NewSource(99))
	for s := 0; s < 4; s++ {
		b, err := segment.NewBuilder("ev", fmt.Sprintf("ev_%d", s), sch, idx)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			err := b.Add(segment.Row{
				countries[rnd.Intn(len(countries))],
				devices[rnd.Intn(len(devices))],
				int64(rnd.Intn(40)),
				int64(rnd.Intn(1000)),
				int64(100 + rnd.Intn(10)),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		seg, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		tree, err := startree.Build(seg, startree.Config{
			DimensionSplitOrder: []string{"country", "device"},
			Metrics:             []string{"clicks"},
		})
		if err != nil {
			t.Fatal(err)
		}
		pinotSegs = append(pinotSegs, query.IndexedSegment{Seg: seg, Tree: tree})
		druidSegs = append(druidSegs, query.IndexedSegment{Seg: seg})
	}
	return sch, pinotSegs, druidSegs
}

// queryGen emits random valid PQL from a seeded generator.
type queryGen struct {
	rnd *rand.Rand
}

func (g *queryGen) pick(ss []string) string { return ss[g.rnd.Intn(len(ss))] }

func (g *queryGen) predicate() string {
	switch g.rnd.Intn(8) {
	case 0:
		return fmt.Sprintf("country = '%s'", g.pick([]string{"us", "de", "fr", "jp", "br", "nowhere"}))
	case 1:
		return fmt.Sprintf("country IN ('%s', '%s')", g.pick([]string{"us", "de"}), g.pick([]string{"fr", "jp", "br"}))
	case 2:
		return fmt.Sprintf("device = '%s'", g.pick([]string{"mobile", "desktop", "tablet"}))
	case 3:
		return fmt.Sprintf("NOT device = '%s'", g.pick([]string{"mobile", "desktop"}))
	case 4:
		lo := g.rnd.Intn(30)
		return fmt.Sprintf("memberId BETWEEN %d AND %d", lo, lo+g.rnd.Intn(10))
	case 5:
		return fmt.Sprintf("memberId %s %d", g.pick([]string{"=", ">", "<", ">=", "<="}), g.rnd.Intn(40))
	case 6:
		return fmt.Sprintf("day %s %d", g.pick([]string{">", ">=", "<", "<="}), 100+g.rnd.Intn(10))
	default:
		return fmt.Sprintf("(country = '%s' OR device = '%s')",
			g.pick([]string{"us", "de", "fr"}), g.pick([]string{"mobile", "tablet"}))
	}
}

func (g *queryGen) where() string {
	n := g.rnd.Intn(3)
	if n == 0 {
		return ""
	}
	preds := make([]string, n)
	for i := range preds {
		preds[i] = g.predicate()
	}
	return " WHERE " + strings.Join(preds, " AND ")
}

func (g *queryGen) aggList() string {
	all := []string{
		"count(*)", "sum(clicks)", "min(clicks)", "max(clicks)",
		"avg(clicks)", "distinctcount(memberId)", "percentile90(clicks)",
	}
	n := 1 + g.rnd.Intn(3)
	g.rnd.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return strings.Join(all[:n], ", ")
}

// next returns a query and whether its row order is fully specified (exact
// compare) or not (compare as a sorted multiset).
func (g *queryGen) next() (pql string, ordered bool) {
	switch g.rnd.Intn(10) {
	case 0, 1: // selection
		cols := "country, device, memberId, clicks"
		if g.rnd.Intn(2) == 0 {
			return fmt.Sprintf("SELECT %s FROM ev%s ORDER BY clicks DESC, memberId LIMIT %d",
				cols, g.where(), 5+g.rnd.Intn(20)), false
		}
		return fmt.Sprintf("SELECT %s FROM ev%s LIMIT %d", cols, g.where(), 5+g.rnd.Intn(20)), false
	case 2, 3, 4: // group-by
		groups := []string{"country", "device", "day", "country, device"}
		return fmt.Sprintf("SELECT %s FROM ev%s GROUP BY %s TOP %d",
			g.aggList(), g.where(), g.pick(groups), 5+g.rnd.Intn(15)), true
	default: // plain aggregation
		return fmt.Sprintf("SELECT %s FROM ev%s", g.aggList(), g.where()), true
	}
}

func canonicalRows(rows [][]any, ordered bool) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	if !ordered {
		sort.Strings(out)
	}
	return strings.Join(out, "\n")
}

// TestDifferentialPinotVsDruid runs 200 seeded random PQL queries through
// the Pinot engine (sorted/scan/star-tree plans) and the Druid baseline
// (forced bitmap plans) over the same segments and requires identical
// results. Any divergence is an execution bug in one of the engines.
func TestDifferentialPinotVsDruid(t *testing.T) {
	sch, pinotSegs, druidSegs := diffCorpus(t)
	gen := &queryGen{rnd: rand.New(rand.NewSource(7))}

	for i := 0; i < 200; i++ {
		q, ordered := gen.next()
		pres, err := query.Run(context.Background(), q, pinotSegs, sch, query.Options{})
		if err != nil {
			t.Fatalf("query %d pinot %q: %v", i, q, err)
		}
		dres, err := query.Run(context.Background(), q, druidSegs, sch, Options())
		if err != nil {
			t.Fatalf("query %d druid %q: %v", i, q, err)
		}
		if fmt.Sprint(pres.Columns) != fmt.Sprint(dres.Columns) {
			t.Fatalf("query %d %q: columns %v vs %v", i, q, pres.Columns, dres.Columns)
		}
		if got, want := canonicalRows(dres.Rows, ordered), canonicalRows(pres.Rows, ordered); got != want {
			t.Fatalf("query %d %q:\ndruid:\n%s\npinot:\n%s", i, q, got, want)
		}
		if dres.Stats.MetadataOnlySegments != 0 || dres.Stats.StarTreeSegments != 0 {
			t.Fatalf("query %d %q: druid used pinot-only plans: %+v", i, q, dres.Stats)
		}
	}
}

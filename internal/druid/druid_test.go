package druid

import (
	"context"
	"fmt"
	"testing"

	"pinot/internal/qctx"
	"pinot/internal/query"
	"pinot/internal/segment"
)

func buildSegments(t *testing.T) (*segment.Schema, []query.IndexedSegment) {
	t.Helper()
	sch, err := segment.NewSchema("ev", []segment.FieldSpec{
		{Name: "country", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "device", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "clicks", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
		{Name: "day", Type: segment.TypeLong, Kind: segment.Time, SingleValue: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	idx := IndexConfig(sch)
	// Druid indexes every non-metric column, time included.
	if len(idx.InvertedColumns) != 3 || idx.SortColumn != "" {
		t.Fatalf("druid index config = %+v", idx)
	}
	b, err := segment.NewBuilder("ev", "ev_0", sch, idx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		err := b.Add(segment.Row{
			[]string{"us", "de", "fr"}[i%3],
			[]string{"mobile", "desktop"}[i%2],
			int64(i), int64(100 + i%4),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	seg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sch, []query.IndexedSegment{{Seg: seg}}
}

func TestDruidEngineAnswersMatchPinot(t *testing.T) {
	sch, segs := buildSegments(t)
	queries := []string{
		"SELECT count(*) FROM ev",
		"SELECT sum(clicks) FROM ev WHERE country = 'us'",
		"SELECT count(*) FROM ev WHERE country = 'us' AND device = 'mobile' GROUP BY day TOP 10",
		"SELECT count(*) FROM ev WHERE day >= 102",
	}
	for _, q := range queries {
		dres, err := query.Run(context.Background(), q, segs, sch, Options())
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		pres, err := query.Run(context.Background(), q, segs, sch, query.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(dres.Rows) != fmt.Sprint(pres.Rows) {
			t.Fatalf("%s: druid %v vs pinot %v", q, dres.Rows, pres.Rows)
		}
		// Druid never takes the metadata shortcut or the star tree.
		if dres.Stats.MetadataOnlySegments != 0 || dres.Stats.StarTreeSegments != 0 {
			t.Fatalf("%s: druid used pinot-only plans: %+v", q, dres.Stats)
		}
	}
}

// TestDruidResponseCarriesLifecycleFields: the baseline engine goes through
// the same query lifecycle as Pinot, so its responses carry a query ID, a
// phase trace and scan accounting too — apples-to-apples observability.
func TestDruidResponseCarriesLifecycleFields(t *testing.T) {
	sch, segs := buildSegments(t)
	res, err := query.Run(context.Background(), "SELECT sum(clicks) FROM ev WHERE country = 'us'", segs, sch, Options())
	if err != nil {
		t.Fatal(err)
	}
	if res.QueryID == "" {
		t.Fatal("missing query ID")
	}
	for _, p := range []qctx.Phase{qctx.PhaseParse, qctx.PhaseExecute, qctx.PhaseReduce} {
		if res.Trace[p] <= 0 {
			t.Fatalf("trace missing phase %q: %v", p, res.Trace)
		}
	}
	if res.Stats.NumDocsScanned == 0 {
		t.Fatalf("scan accounting missing: %+v", res.Stats)
	}
}

func TestDruidOptionsForceBitmapPath(t *testing.T) {
	opts := Options()
	if !opts.ForceBitmap || !opts.DisableSorted || !opts.DisableStarTree || !opts.DisableMetadataPlans {
		t.Fatalf("options = %+v", opts)
	}
}

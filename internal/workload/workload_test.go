package workload

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pinot/internal/druid"
	"pinot/internal/pql"
	"pinot/internal/query"
	"pinot/internal/segment"
)

func smallSize() SizeConfig { return SizeConfig{Segments: 2, RowsPerSegment: 2000, Seed: 3} }

func TestDeterministicGeneration(t *testing.T) {
	for _, mk := range []func() *Dataset{
		func() *Dataset { return Anomaly(smallSize()) },
		func() *Dataset { return ShareAnalytics(smallSize()) },
		func() *Dataset { return Impressions(smallSize(), 4) },
	} {
		d1, d2 := mk(), mk()
		r1, r2 := d1.Rows(1), d2.Rows(1)
		if len(r1) != 2000 {
			t.Fatalf("%s rows = %d", d1.Name, len(r1))
		}
		for i := range r1 {
			if fmt.Sprint(r1[i]) != fmt.Sprint(r2[i]) {
				t.Fatalf("%s row %d not deterministic", d1.Name, i)
			}
		}
		q1, q2 := d1.Queries(50, 9), d2.Queries(50, 9)
		for i := range q1 {
			if q1[i] != q2[i] {
				t.Fatalf("%s query %d not deterministic", d1.Name, i)
			}
		}
	}
}

func TestQueriesParseAndRun(t *testing.T) {
	datasets := []*Dataset{Anomaly(smallSize()), ShareAnalytics(smallSize()), Impressions(smallSize(), 4)}
	for _, d := range datasets {
		segs, _, err := d.BuildIndexed(Variant{Name: "pinot", Index: segment.IndexConfig{
			SortColumn:      d.SortColumn,
			InvertedColumns: d.InvertedColumns,
		}, StarTree: d.StarTree})
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		for _, q := range d.Queries(40, 11) {
			if _, err := pql.Parse(q); err != nil {
				t.Fatalf("%s: unparsable query %q: %v", d.Name, q, err)
			}
			res, err := query.Run(context.Background(), q, segs, d.Schema, query.Options{})
			if err != nil {
				t.Fatalf("%s: query %q failed: %v", d.Name, q, err)
			}
			if res.Partial {
				t.Fatalf("%s: query %q partial", d.Name, q)
			}
		}
	}
}

// TestVariantsAgree cross-checks that every index variant (including the
// Druid baseline) returns identical answers on the anomaly workload — the
// precondition for the figure comparisons to be meaningful.
func TestVariantsAgree(t *testing.T) {
	d := Anomaly(smallSize())
	variants := []Variant{
		{Name: "noindex"},
		{Name: "inverted", Index: segment.IndexConfig{InvertedColumns: d.InvertedColumns}},
		{Name: "startree", StarTree: d.StarTree},
		{Name: "druid", Index: druid.IndexConfig(d.Schema), Druid: true},
	}
	type built struct {
		v    Variant
		segs []query.IndexedSegment
	}
	var builds []built
	for _, v := range variants {
		segs, _, err := d.BuildIndexed(v)
		if err != nil {
			t.Fatal(err)
		}
		builds = append(builds, built{v, segs})
	}
	for _, q := range d.Queries(30, 21) {
		var want string
		for i, b := range builds {
			res, err := query.Run(context.Background(), q, b.segs, d.Schema, b.v.PlanOptions())
			if err != nil {
				t.Fatalf("[%s] %s: %v", b.v.Name, q, err)
			}
			got := renderRows(res)
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("[%s] %s:\n  got  %s\n  want %s", b.v.Name, q, got, want)
			}
		}
	}
}

func renderRows(res *query.Result) string {
	var sb strings.Builder
	for _, row := range res.Rows {
		for _, v := range row {
			if f, ok := v.(float64); ok {
				fmt.Fprintf(&sb, "%.4f|", f)
			} else {
				fmt.Fprintf(&sb, "%v|", v)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestDruidFootprintLarger verifies the on-disk size relationship the paper
// reports (Druid 1.2 TB vs Pinot 300 GB on share analytics): indexing every
// dimension costs real bytes.
func TestDruidFootprintLarger(t *testing.T) {
	d := ShareAnalytics(smallSize())
	_, pinotBytes, err := d.BuildIndexed(Variant{Name: "pinot", Index: segment.IndexConfig{SortColumn: d.SortColumn}})
	if err != nil {
		t.Fatal(err)
	}
	_, druidBytes, err := d.BuildIndexed(Variant{Name: "druid", Index: druid.IndexConfig(d.Schema), Druid: true})
	if err != nil {
		t.Fatal(err)
	}
	if druidBytes <= pinotBytes {
		t.Fatalf("druid bytes %d <= pinot bytes %d", druidBytes, pinotBytes)
	}
}

// TestDruidVariantPlansLikeDruid: the figure sweeps' Druid variant runs
// under the baseline's own options — every segment planned, no pruning — and
// a Pinot variant under the defaults.
func TestDruidVariantPlansLikeDruid(t *testing.T) {
	if got, want := (Variant{Druid: true}).PlanOptions(), druid.Options(); got != want {
		t.Fatalf("Druid variant plans with %+v, the baseline is %+v", got, want)
	}
	if got := (Variant{}).PlanOptions(); got != (query.Options{}) {
		t.Fatalf("Pinot variant plans with %+v, want the defaults", got)
	}
}

func TestImpressionsPartitioning(t *testing.T) {
	d := Impressions(SizeConfig{Segments: 4, RowsPerSegment: 500, Seed: 5}, 4)
	// Every row of segment si must land in partition si%4 under the
	// stream partition function.
	for si := 0; si < 4; si++ {
		for _, row := range d.Rows(si) {
			m := row[0].(int64)
			if got := PartitionOfMember(m, 4); got != si%4 {
				t.Fatalf("segment %d member %d in partition %d", si, m, got)
			}
		}
	}
}

func TestWVMPSortedQueriesAreCheap(t *testing.T) {
	d := ShareAnalytics(smallSize())
	sorted, _, err := d.BuildIndexed(Variant{Name: "sorted", Index: segment.IndexConfig{SortColumn: "vieweeId"}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := query.Run(context.Background(), "SELECT count(*) FROM wvmp WHERE vieweeId = 5", sorted, d.Schema, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The sorted fast path touches only the matching range: entries
	// scanned must be far below the dataset size.
	if res.Stats.NumEntriesScanned > int64(d.NumSegments*d.RowsPerSegment)/10 {
		t.Fatalf("sorted plan scanned %d entries", res.Stats.NumEntriesScanned)
	}
}

package query

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pinot/internal/pql"
	"pinot/internal/segment"
)

// typedSchema has a column of every type: single-value dimensions of the six
// types, multi-value dimensions of four, and a long and two double metrics,
// nan holding NaNs.
func typedSchema(t testing.TB) *segment.Schema {
	t.Helper()
	sv := func(name string, typ segment.DataType, kind segment.FieldKind) segment.FieldSpec {
		return segment.FieldSpec{Name: name, Type: typ, Kind: kind, SingleValue: true}
	}
	mv := func(name string, typ segment.DataType) segment.FieldSpec {
		return segment.FieldSpec{Name: name, Type: typ, Kind: segment.Dimension}
	}
	s, err := segment.NewSchema("typed", []segment.FieldSpec{
		sv("i", segment.TypeInt, segment.Dimension), sv("l", segment.TypeLong, segment.Dimension),
		sv("f", segment.TypeFloat, segment.Dimension), sv("d", segment.TypeDouble, segment.Dimension),
		sv("s", segment.TypeString, segment.Dimension), sv("b", segment.TypeBoolean, segment.Dimension),
		mv("ml", segment.TypeLong), mv("md", segment.TypeDouble), mv("ms", segment.TypeString), mv("mb", segment.TypeBoolean),
		sv("clicks", segment.TypeLong, segment.Metric), sv("score", segment.TypeDouble, segment.Metric),
		sv("nan", segment.TypeDouble, segment.Metric),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// typedSegments builds n seeded segments of the typed schema, among their
// values empty strings, empty multi-value cells and NaN.
func typedSegments(t testing.TB, seed int64, n, rows int) []IndexedSegment {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	strs := []string{"", "a", "b", "zz", "é"}
	var segs []IndexedSegment
	for s := 0; s < n; s++ {
		b, err := segment.NewBuilder("typed", fmt.Sprintf("typed_%d", s), typedSchema(t), segment.IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			ml, md, ms, mb := []int64{}, []float64{}, []string{}, []bool{}
			for k := r.Intn(3); k > 0; k-- {
				ml = append(ml, int64(r.Intn(5)-2))
				md = append(md, float64(r.Intn(4))/2)
				ms = append(ms, strs[r.Intn(len(strs))])
				mb = append(mb, r.Intn(2) == 0)
			}
			nan := float64(r.Intn(3))
			if r.Intn(4) == 0 {
				nan = math.NaN()
			}
			row := segment.Row{
				int64(r.Intn(4)), int64(r.Intn(1000) - 500), float64(r.Intn(6)) / 4, float64(r.Intn(9)) - 4.5,
				strs[r.Intn(len(strs))], r.Intn(2) == 0, ml, md, ms, mb,
				int64(r.Intn(50)), float64(r.Intn(20)) / 8, nan,
			}
			if err := b.Add(row); err != nil {
				t.Fatal(err)
			}
		}
		seg, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, IndexedSegment{Seg: seg})
	}
	return segs
}

// typedQueries returns the seeded selections the property runs: pinned
// shapes first (every column, every multi-value column, ORDER BY only on
// hidden columns, OFFSET past the rows, LIMIT 0), then random select lists
// over every column with ORDER BY on one to three single-value columns,
// selected or hidden, and OFFSET/LIMIT.
func typedQueries(seed int64, n int) []string {
	r := rand.New(rand.NewSource(seed))
	cols := []string{"i", "l", "f", "d", "s", "b", "ml", "md", "ms", "mb", "clicks", "score", "nan"}
	sortable := []string{"i", "l", "f", "d", "s", "b", "clicks", "score"}
	out := []string{
		"SELECT * FROM typed LIMIT 1000",
		"SELECT ml, md, ms, mb FROM typed WHERE l > 0 LIMIT 50",
		"SELECT nan, s FROM typed ORDER BY clicks DESC, l LIMIT 7",
		"SELECT ms, nan FROM typed ORDER BY s, b DESC, i LIMIT 3, 9",
		"SELECT i FROM typed LIMIT 100000, 5",
		"SELECT s, ml FROM typed ORDER BY d LIMIT 0",
	}
	for len(out) < n {
		var sel []string
		for _, i := range r.Perm(len(cols))[:1+r.Intn(4)] {
			sel = append(sel, cols[i])
		}
		q := "SELECT " + strings.Join(sel, ", ") + " FROM typed"
		if r.Intn(3) == 0 {
			q += fmt.Sprintf(" WHERE clicks < %d", r.Intn(50))
		}
		if k := r.Intn(4); k > 0 {
			var by []string
			for _, i := range r.Perm(len(sortable))[:k] {
				o := sortable[i]
				if r.Intn(2) == 0 {
					o += " DESC"
				}
				by = append(by, o)
			}
			q += " ORDER BY " + strings.Join(by, ", ")
		}
		q += fmt.Sprintf(" LIMIT %d, %d", r.Intn(6), r.Intn(40))
		out = append(out, q)
	}
	return out
}

// TestTypedSelectionMatchesRowReference: over columns of every type, single-
// and multi-value, Finalize's boxed rows are the oracle's, whose rows stay
// boxed and are sorted and cut by the row reference (selectRows) — through
// the engine, and through segments executed one by one, folded two to a
// server, encoded, decoded and merged three ways.
func TestTypedSelectionMatchesRowReference(t *testing.T) {
	schema := typedSchema(t)
	segs := typedSegments(t, 65, 6, 45)
	oracle := NewOracle(segs, schema)
	for _, text := range typedQueries(66, 120) {
		want, err := oracle.Answer(text)
		if err != nil {
			t.Fatalf("%s: oracle: %v", text, err)
		}
		got, err := Run(context.Background(), text, segs, schema, Options{})
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		sameRows(t, "engine", text, got, want)

		q, err := pql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		merged := EmptyIntermediate(q, schema)
		for server := 0; server < 3; server++ {
			var folded *Intermediate
			for _, is := range segs[2*server : 2*server+2] {
				res, err := ExecuteSegment(context.Background(), is, q, schema, Options{})
				if err != nil {
					t.Fatalf("%s: %v", text, err)
				}
				if folded == nil {
					folded = res
				} else if err := folded.Merge(res); err != nil {
					t.Fatalf("%s: %v", text, err)
				}
			}
			back, err := DecodeIntermediate(mustEncode(t, folded))
			if err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			if err := back.Conforms(q); err != nil {
				t.Fatalf("%s: %v", text, err)
			}
			if err := merged.Merge(back); err != nil {
				t.Fatalf("%s: %v", text, err)
			}
		}
		sameRows(t, "wire", text, merged.Finalize(q), want)
	}
}

// sameRows compares columns and rows, each cell with its dynamic type, NaN
// equal to NaN, and no row as no row: a segment that sorts keeps none of a
// LIMIT 0, so the engine has no rows to cut, where the oracle cuts its rows
// to an empty list.
func sameRows(t *testing.T, path, q string, got, want *Result) {
	t.Helper()
	render := func(r *Result) string {
		if len(r.Rows) == 0 {
			return fmt.Sprintf("%q no rows", r.Columns)
		}
		return fmt.Sprintf("%q %#v", r.Columns, r.Rows)
	}
	if g, w := render(got), render(want); g != w {
		t.Fatalf("%s: %s:\n got %s\nwant %s", path, q, g, w)
	}
}

// TestOrderByMultiValueIsRefused: a multi-value column has no order.
func TestOrderByMultiValueIsRefused(t *testing.T) {
	segs := typedSegments(t, 1, 1, 10)
	_, err := Run(context.Background(), "SELECT s FROM typed ORDER BY ms", segs, typedSchema(t), Options{})
	if err == nil || !strings.Contains(err.Error(), "ORDER BY on multi-value column") {
		t.Fatalf("err = %v", err)
	}
}

// TestSelectionConforms: a selection conforms when it has a column per select
// column and each column holds its rows.
func TestSelectionConforms(t *testing.T) {
	q, err := pql.Parse("SELECT a, t FROM x")
	if err != nil {
		t.Fatal(err)
	}
	good := mustSelection(KindSelection, []string{"a", "t"}, 0, []any{int64(1), []any{"x"}}, []any{int64(2), []any{}})
	if err := good.Conforms(q); err != nil {
		t.Fatal(err)
	}
	short := mustSelection(KindSelection, []string{"a", "t"}, 0, []any{int64(1), []any{"x"}}, []any{int64(2), []any{}})
	short.Selection.cols[0].nums = short.Selection.cols[0].nums[:1]
	wide := mustSelection(KindSelection, []string{"a", "t"}, 0, []any{int64(1), []any{"x"}})
	wide.SelectCols = []string{"a"}
	offs := mustSelection(KindSelection, []string{"a", "t"}, 0, []any{int64(1), []any{"x"}})
	offs.Selection.offs[1] = []int{0, 2}
	for name, r := range map[string]*Intermediate{"short column": short, "column count": wide, "offsets": offs} {
		if err := r.Conforms(q); err == nil {
			t.Errorf("%s: conforms", name)
		}
	}
}

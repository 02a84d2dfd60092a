package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pinot/internal/pql"
	"pinot/internal/segment"
)

// randomPredicate generates a random predicate tree over the test schema.
func randomPredicate(r *rand.Rand, depth int) string {
	if depth <= 0 || r.Float64() < 0.5 {
		// Leaf.
		switch r.Intn(6) {
		case 0:
			return fmt.Sprintf("country = '%s'", []string{"us", "de", "fr", "zz"}[r.Intn(4)])
		case 1:
			return fmt.Sprintf("memberId %s %d", []string{"<", "<=", ">", ">=", "=", "<>"}[r.Intn(6)], r.Intn(60)-5)
		case 2:
			lo := r.Intn(40)
			return fmt.Sprintf("memberId BETWEEN %d AND %d", lo, lo+r.Intn(20))
		case 3:
			return fmt.Sprintf("browser IN ('%s', '%s')", []string{"chrome", "edge"}[r.Intn(2)], []string{"safari", "firefox"}[r.Intn(2)])
		case 4:
			return fmt.Sprintf("clicks > %d", r.Intn(100))
		default:
			lo := 15000 + r.Intn(25)
			return fmt.Sprintf("day >= %d", lo)
		}
	}
	a, b := randomPredicate(r, depth-1), randomPredicate(r, depth-1)
	switch r.Intn(3) {
	case 0:
		return fmt.Sprintf("(%s AND %s)", a, b)
	case 1:
		return fmt.Sprintf("(%s OR %s)", a, b)
	default:
		return fmt.Sprintf("NOT (%s)", a)
	}
}

func countWhere(t *testing.T, segs []IndexedSegment, where string) int64 {
	t.Helper()
	res := runPQL(t, segs, "SELECT count(*) FROM events WHERE "+where, Options{})
	return res.Rows[0][0].(int64)
}

// Property: count(A) = count(A AND B) + count(A AND NOT B), for random
// predicate trees across all index configurations, and both against the
// brute-force reference.
func TestPropertyFilterPartition(t *testing.T) {
	rows := testRows(2500, 50)
	r := rand.New(rand.NewSource(51))
	for cfgName, cfg := range allConfigs() {
		seg := buildRows(t, rows, cfg, "s0")
		segs := []IndexedSegment{{Seg: seg}}
		for trial := 0; trial < 25; trial++ {
			a := randomPredicate(r, 2)
			b := randomPredicate(r, 2)
			cA := countWhere(t, segs, a)
			cAB := countWhere(t, segs, fmt.Sprintf("(%s) AND (%s)", a, b))
			cANotB := countWhere(t, segs, fmt.Sprintf("(%s) AND NOT (%s)", a, b))
			if cA != cAB+cANotB {
				t.Fatalf("[%s] partition law violated for A=%s B=%s: %d != %d + %d",
					cfgName, a, b, cA, cAB, cANotB)
			}
			// Cross-check against the brute-force row evaluator.
			q, err := pql.Parse("SELECT count(*) FROM events WHERE " + a)
			if err != nil {
				t.Fatalf("generated unparsable predicate %q: %v", a, err)
			}
			var want int64
			for _, row := range rows {
				if refFilter(row, q.Filter) {
					want++
				}
			}
			if cA != want {
				t.Fatalf("[%s] count(%s) = %d, reference %d", cfgName, a, cA, want)
			}
		}
	}
}

// Property: De Morgan at the document level — NOT (A OR B) == NOT A AND
// NOT B.
func TestPropertyDeMorgan(t *testing.T) {
	rows := testRows(1500, 52)
	seg := buildRows(t, rows, segment.IndexConfig{InvertedColumns: []string{"country", "browser"}}, "s0")
	segs := []IndexedSegment{{Seg: seg}}
	r := rand.New(rand.NewSource(53))
	for trial := 0; trial < 25; trial++ {
		a := randomPredicate(r, 1)
		b := randomPredicate(r, 1)
		lhs := countWhere(t, segs, fmt.Sprintf("NOT ((%s) OR (%s))", a, b))
		rhs := countWhere(t, segs, fmt.Sprintf("NOT (%s) AND NOT (%s)", a, b))
		if lhs != rhs {
			t.Fatalf("De Morgan violated for A=%s B=%s: %d != %d", a, b, lhs, rhs)
		}
	}
}

// Property: splitting the rows across segments never changes aggregation
// answers.
func TestPropertySegmentSplitInvariance(t *testing.T) {
	rows := testRows(2000, 54)
	whole := []IndexedSegment{{Seg: buildRows(t, rows, segment.IndexConfig{}, "w")}}
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 5; trial++ {
		// Random split into 1-6 segments.
		k := 1 + r.Intn(6)
		var parts []IndexedSegment
		start := 0
		for i := 0; i < k; i++ {
			end := start + (len(rows)-start)/(k-i)
			if i == k-1 {
				end = len(rows)
			}
			if end == start {
				continue
			}
			parts = append(parts, IndexedSegment{Seg: buildRows(t, rows[start:end], segment.IndexConfig{}, fmt.Sprintf("p%d", i))})
			start = end
		}
		for _, q := range []string{
			"SELECT count(*), sum(clicks), min(revenue), max(revenue), avg(clicks), distinctcount(memberId) FROM events WHERE country <> 'us'",
			"SELECT sum(clicks) FROM events GROUP BY browser TOP 100",
			"SELECT percentile50(clicks) FROM events WHERE browser = 'chrome'",
		} {
			w := runPQL(t, whole, q, Options{})
			p := runPQL(t, parts, q, Options{})
			if !resultRowsEqual(w, p) {
				t.Fatalf("trial %d, %s:\n whole %v\n parts %v", trial, q, w.Rows, p.Rows)
			}
		}
	}
}

// randomScanTree generates a predicate tree whose leaves cover every kind the
// scan cursor serves (dictionary =, range, IN, NOT IN; raw long and double
// metric; compiled expression comparison) plus, through the index
// configurations it runs against, sorted-range and bitmap siblings.
func randomScanTree(r *rand.Rand, depth int) string {
	if depth <= 0 || r.Float64() < 0.4 {
		switch r.Intn(9) {
		case 0:
			return fmt.Sprintf("country = '%s'", []string{"us", "de", "fr", "zz"}[r.Intn(4)])
		case 1:
			return fmt.Sprintf("memberId %s %d", []string{"<", "<=", ">", ">=", "=", "<>"}[r.Intn(6)], r.Intn(60)-5)
		case 2:
			return fmt.Sprintf("browser %s ('chrome', '%s')", []string{"IN", "NOT IN"}[r.Intn(2)], []string{"safari", "opera"}[r.Intn(2)])
		case 3:
			lo := 15000 + r.Intn(25)
			return fmt.Sprintf("day BETWEEN %d AND %d", lo, lo+r.Intn(12))
		case 4:
			return fmt.Sprintf("clicks %s %d", []string{"<", ">=", "=", "<>"}[r.Intn(4)], r.Intn(100))
		case 5:
			return fmt.Sprintf("clicks IN (%d, %d, %d)", r.Intn(100), r.Intn(100), r.Intn(100))
		case 6:
			return fmt.Sprintf("revenue %s %d.5", []string{"<", ">"}[r.Intn(2)], r.Intn(100))
		case 7:
			return fmt.Sprintf("clicks + memberId > %d", r.Intn(150))
		default:
			return fmt.Sprintf("revenue * 2 < clicks + %d", r.Intn(100))
		}
	}
	a, b := randomScanTree(r, depth-1), randomScanTree(r, depth-1)
	switch r.Intn(5) {
	case 0, 1:
		return fmt.Sprintf("(%s AND %s)", a, b)
	case 2, 3:
		return fmt.Sprintf("(%s OR %s)", a, b)
	default:
		return fmt.Sprintf("NOT (%s)", a)
	}
}

// Property: block-at-a-time and row-at-a-time execution return the same rows
// and the same Stats — to the entry — for random predicate trees, under
// aggregation, group-by and a selection that stops inside a scan leaf's first
// chunk, on every index configuration and on a consuming segment.
func TestPropertyVectorizedTreesMatchScalar(t *testing.T) {
	rows := testRows(3000, 60)
	tables := map[string][]IndexedSegment{}
	for name, cfg := range allConfigs() {
		tables[name] = []IndexedSegment{{Seg: buildRows(t, rows, cfg, "s0")}}
	}
	ms, err := segment.NewMutableSegment("events", "rt0", rowsSchema(t), segment.IndexConfig{InvertedColumns: []string{"country"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows[:1200] {
		if err := ms.Add(segment.Row{r.country, r.browser, r.member, r.clicks, r.rev, r.day}); err != nil {
			t.Fatal(err)
		}
	}
	tables["consuming"] = []IndexedSegment{{Seg: ms.Snapshot()}}

	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		where := randomScanTree(r, 3)
		for _, q := range []string{
			"SELECT count(*), sum(revenue) FROM events WHERE " + where,
			"SELECT max(clicks) FROM events WHERE " + where + " GROUP BY country TOP 5",
			fmt.Sprintf("SELECT country, clicks FROM events WHERE %s LIMIT %d", where, 1+r.Intn(20)),
		} {
			for name, segs := range tables {
				vec := runPQL(t, segs, q, Options{})
				scal := runPQL(t, segs, q, Options{DisableVectorization: true})
				if vec.Stats != scal.Stats {
					t.Fatalf("[%s] %s:\n vec    %+v\n scalar %+v", name, q, vec.Stats, scal.Stats)
				}
				if !reflect.DeepEqual(vec.Rows, scal.Rows) {
					t.Fatalf("[%s] %s:\n vec    %v\n scalar %v", name, q, vec.Rows, scal.Rows)
				}
			}
		}
	}
}

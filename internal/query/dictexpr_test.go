// White-box tests for dictionary-space expression execution: the case-folded
// dictionary probe (brute-forced against strings.ToLower/ToUpper over a
// Unicode-edge dictionary), the plan-level guarantee that lower/upper
// equality rewrites to a probe without building a memo, expression-predicate
// pruning (a no-match predicate scans zero docs).
package query

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pinot/internal/pql"
	"pinot/internal/segment"
)

// dictProbeSchema is a single string dimension plus a long metric, the
// minimal shape for probing dictionaries with hostile casing.
func dictProbeSchema(t testing.TB) *segment.Schema {
	t.Helper()
	s, err := segment.NewSchema("dtbl", []segment.FieldSpec{
		{Name: "name", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "hits", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func buildDictProbeSegment(t testing.TB, segName string, values []string) *segment.Segment {
	t.Helper()
	b, err := segment.NewBuilder("dtbl", segName, dictProbeSchema(t), segment.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		if err := b.Add(segment.Row{v, int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

// unicodeEdgeValues exercises every special case the preimage enumeration
// claims to handle: the Kelvin sign K (U+212A) lowercases to plain k, the
// long s ſ (U+017F) uppercases to plain S, dotted İ (U+0130) lowercases to
// plain i while dotless ı (U+0131) uppercases to plain I — all outside or at
// the edge of SimpleFold's orbits — plus Greek sigma's three-member orbit
// and ordinary mixed-case ASCII.
var unicodeEdgeValues = []string{
	"k", "K", "K", "kelvin", "Kelvin", "KELVIN", "Kelvin",
	"i", "I", "İ", "ı",
	"s", "S", "ſ", "stop", "STOP", "ſtop",
	"σ", "Σ", "ς", // σ Σ ς
	"ß", "ẞ", // ß ẞ
	"cat", "Cat", "caT", "CAT", "cAt",
	"", "MiXeD", "mixed",
}

// TestCaseFoldProbeBruteForce checks the probe's id set against the
// definitionally correct answer — fold every dictionary entry and compare to
// the target — for lower and upper, = and <>, across fixed-point,
// non-fixed-point and absent targets.
func TestCaseFoldProbeBruteForce(t *testing.T) {
	seg := buildDictProbeSegment(t, "dprobe", unicodeEdgeValues)
	cs := columnSource{seg: seg}
	col, err := cs.column("name")
	if err != nil {
		t.Fatal(err)
	}
	if !col.DictSorted() {
		t.Fatal("immutable dictionary should be sorted")
	}
	targets := []string{
		"k", "K", "kelvin", "KELVIN", "i", "I", "ı", "İ",
		"s", "S", "stop", "STOP", "ſ", "ſtop",
		"σ", "Σ", "ς", "ß", "ẞ",
		"cat", "CAT", "Cat", "mixed", "MiXeD", "", "absent", "ABSENT",
	}
	for _, fn := range []string{"lower", "upper"} {
		fold := strings.ToLower
		if fn == "upper" {
			fold = strings.ToUpper
		}
		for _, op := range []pql.CompareOp{pql.OpEq, pql.OpNeq} {
			for _, target := range targets {
				p := pql.ExprCompare{
					LHS: pql.Call{Name: fn, Args: []pql.Expr{pql.ColumnRef{Name: "name"}}},
					Op:  op,
					RHS: pql.Literal{Value: target},
				}
				set, ok := caseFoldProbe(col, p)
				if !ok {
					t.Fatalf("%s(name) %s %q: probe declined on a sorted string dictionary", fn, op, target)
				}
				for id := 0; id < col.Cardinality(); id++ {
					entry := col.Value(id).(string)
					want := fold(entry) == target
					if op == pql.OpNeq {
						want = !want
					}
					if got := set.contains(id); got != want {
						t.Errorf("%s(%q) %s %q: dict id %d: probe=%v brute-force=%v",
							fn, entry, op, target, id, got, want)
					}
				}
			}
		}
	}
}

// TestCaseFoldProbeLiteralFlipped checks the literal-on-the-left orientation
// resolves identically.
func TestCaseFoldProbeLiteralFlipped(t *testing.T) {
	seg := buildDictProbeSegment(t, "dflip", unicodeEdgeValues)
	cs := columnSource{seg: seg}
	col, err := cs.column("name")
	if err != nil {
		t.Fatal(err)
	}
	call := pql.Call{Name: "lower", Args: []pql.Expr{pql.ColumnRef{Name: "name"}}}
	a, aok := caseFoldProbe(col, pql.ExprCompare{LHS: call, Op: pql.OpEq, RHS: pql.Literal{Value: "cat"}})
	b, bok := caseFoldProbe(col, pql.ExprCompare{LHS: pql.Literal{Value: "cat"}, Op: pql.OpEq, RHS: call})
	if !aok || !bok {
		t.Fatalf("probe declined: col-first=%v literal-first=%v", aok, bok)
	}
	for id := 0; id < col.Cardinality(); id++ {
		if a.contains(id) != b.contains(id) {
			t.Fatalf("orientation changes probe result at dict id %d", id)
		}
	}
}

// TestFoldPreimages pins the exact preimage sets for the edge runes the
// enumeration special-cases.
func TestFoldPreimages(t *testing.T) {
	cases := []struct {
		target string
		lower  bool
		want   []string
	}{
		// ToLower maps k, K and the Kelvin sign U+212A all to k.
		{"k", true, []string{"k", "K", "K"}},
		// ToUpper("k")="K"; the Kelvin sign uppercases to itself, so it is
		// NOT a preimage of K.
		{"K", false, []string{"k", "K"}},
		// ToLower preimages of i: i, I, and dotted capital İ.
		{"i", true, []string{"i", "I", "İ"}},
		// ToUpper preimages of I: i, I, and dotless ı.
		{"I", false, []string{"i", "I", "ı"}},
		// Long s lowercases to itself — a preimage of itself, not of s.
		{"s", true, []string{"s", "S"}},
		// ToUpper maps both s and ſ to S.
		{"S", false, []string{"s", "S", "ſ"}},
		// Final sigma ς lowercases to itself only (Σ lowercases to σ).
		{"ς", true, []string{"ς"}},
		{"σ", true, []string{"σ", "Σ"}},
	}
	for _, c := range cases {
		got, ok := foldPreimages(c.target, caseFold(c.lower))
		if !ok {
			t.Fatalf("foldPreimages(%q, lower=%v) overflowed", c.target, c.lower)
		}
		gotSet := map[string]bool{}
		for _, v := range got {
			gotSet[v] = true
		}
		if len(got) != len(c.want) {
			t.Errorf("foldPreimages(%q, lower=%v) = %q, want %q", c.target, c.lower, got, c.want)
			continue
		}
		for _, w := range c.want {
			if !gotSet[w] {
				t.Errorf("foldPreimages(%q, lower=%v) = %q, missing %q", c.target, c.lower, got, w)
			}
		}
	}
}

// caseFold is the table's Fold of lower, or of upper.
func caseFold(lower bool) func(rune) rune {
	name := "upper"
	if lower {
		name = "lower"
	}
	f, _ := pql.Builtin(name)
	return f.Fold
}

// TestFoldPreimagesVariantCap: a target of repeated orbit runes explodes
// combinatorially; the enumeration must give up rather than enumerate.
func TestFoldPreimagesVariantCap(t *testing.T) {
	if _, ok := foldPreimages(strings.Repeat("k", 9), caseFold(true)); ok {
		t.Fatal("9 three-way runes is 19683 variants; expected the cap to fire")
	}
}

// TestProbeRewriteFiresAtPlanTime is the plan-level assertion that
// lower(col) = 'x' is served by the dictionary probe: dictExprIDSet resolves
// the exact matching ids AND reads each dictionary value once, for the
// probe's length guard — a memo would read every value again to evaluate the
// expression over the dictionary.
func TestProbeRewriteFiresAtPlanTime(t *testing.T) {
	seg := counting(buildDictProbeSegment(t, "dplan", unicodeEdgeValues))
	name := seg.Column("name").(*countingColumn)
	card := name.Cardinality()
	cs := columnSource{seg: seg}
	p := pql.ExprCompare{
		LHS: pql.Call{Name: "lower", Args: []pql.Expr{pql.ColumnRef{Name: "name"}}},
		Op:  pql.OpEq,
		RHS: pql.Literal{Value: "cat"},
	}
	col, set, ok := dictExprIDSet(cs, p, Options{})
	if !ok {
		t.Fatal("dictExprIDSet declined a probe-shaped predicate")
	}
	if name.values != card {
		t.Fatalf("planning read %d dictionary values of %d; the rewrite must not evaluate the dictionary", name.values, card)
	}
	var got []string
	set.each(func(id int) { got = append(got, col.Value(id).(string)) })
	want := map[string]bool{"cat": true, "Cat": true, "caT": true, "CAT": true, "cAt": true}
	if len(got) != len(want) {
		t.Fatalf("probe matched %q, want the five casings of cat", got)
	}
	for _, v := range got {
		if !want[v] {
			t.Fatalf("probe matched %q, not a casing of cat", v)
		}
	}

	// The same predicate through the full query path: one probe, no memo,
	// and the segment counts as dictionary-space served.
	name.values = 0
	res, err := Run(context.Background(), "SELECT count(*) FROM dtbl WHERE lower(name) = 'cat'",
		[]IndexedSegment{{Seg: seg}}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != int64(5) {
		t.Fatalf("count = %v, want 5", res.Rows[0][0])
	}
	if res.Stats.DictExprSegments != 1 {
		t.Fatalf("DictExprSegments = %d, want 1", res.Stats.DictExprSegments)
	}
	if name.values != card {
		t.Fatalf("query read %d dictionary values of %d: equality probes must stay memo-free", name.values, card)
	}
}

// TestDictExprPruneNoMatch is the issue's acceptance shape: an expression
// predicate matching no dictionary entry prunes every immutable segment —
// zero docs and zero entries scanned, the segments landing in
// SegmentsPrunedByValue.
func TestDictExprPruneNoMatch(t *testing.T) {
	rows := testRows(4000, 11)
	segs := []IndexedSegment{
		{Seg: buildRows(t, rows[:2000], segment.IndexConfig{}, "dprune_a")},
		{Seg: buildRows(t, rows[2000:], segment.IndexConfig{}, "dprune_b")},
	}
	for _, q := range []string{
		"SELECT count(*) FROM events WHERE upper(country) = 'NOPE'",
		// Non-fixed-point target: upper() can never output lowercase.
		"SELECT count(*) FROM events WHERE upper(country) = 'us'",
		// Memo path (arithmetic, not a probe): country cardinality is 7, no
		// concat of it equals this.
		"SELECT sum(clicks) FROM events WHERE concat(country, '!') = 'absent'",
	} {
		res := runPQL(t, segs, q, Options{})
		if len(res.Rows) != 1 {
			t.Fatalf("%q: rows = %+v", q, res.Rows)
		}
		st := res.Stats
		if st.SegmentsPrunedByValue != len(segs) {
			t.Errorf("%q: SegmentsPrunedByValue = %d, want %d", q, st.SegmentsPrunedByValue, len(segs))
		}
		if st.NumDocsScanned != 0 || st.NumEntriesScanned != 0 {
			t.Errorf("%q: scanned %d docs / %d entries, want 0/0", q, st.NumDocsScanned, st.NumEntriesScanned)
		}
		if st.DictExprSegments != len(segs) {
			t.Errorf("%q: DictExprSegments = %d, want %d", q, st.DictExprSegments, len(segs))
		}
		// The disabled path must agree on the answer while actually scanning.
		base := runPQL(t, segs, q, ForceRungs(Options{}, true))
		if fmt.Sprint(base.Rows) != fmt.Sprint(res.Rows) {
			t.Errorf("%q: rows diverge on the row path: %+v vs %+v", q, res.Rows, base.Rows)
		}
		if base.Stats.DictExprSegments != 0 {
			t.Errorf("%q: DictExprSegments = %d with dictionary space disabled", q, base.Stats.DictExprSegments)
		}
	}
}

// TestDictExprMatchAllElision: a predicate every dictionary entry satisfies
// is elided at plan time, so count(*) degenerates to segment metadata.
func TestDictExprMatchAllElision(t *testing.T) {
	rows := testRows(3000, 13)
	segs := []IndexedSegment{{Seg: buildRows(t, rows, segment.IndexConfig{}, "dall")}}
	res := runPQL(t, segs, "SELECT count(*) FROM events WHERE lower(country) <> 'nomatch'", Options{})
	if res.Rows[0][0] != int64(len(rows)) {
		t.Fatalf("count = %v, want %d", res.Rows[0][0], len(rows))
	}
	if res.Stats.NumDocsScanned != 0 {
		t.Fatalf("scanned %d docs; an elided filter should serve count(*) from metadata", res.Stats.NumDocsScanned)
	}
	if res.Stats.MetadataOnlySegments != 1 {
		t.Fatalf("MetadataOnlySegments = %d, want 1", res.Stats.MetadataOnlySegments)
	}
}

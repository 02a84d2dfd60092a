package query

import (
	"context"
	"strings"
	"testing"

	"pinot/internal/segment"
)

// failingWidthSegment holds 3000 rows whose width column w is 1 except at
// the rows in zero, where timeBucket(hits, w) fails.
func failingWidthSegment(t *testing.T, zero ...int) []IndexedSegment {
	t.Helper()
	schema, err := segment.NewSchema("wtbl", []segment.FieldSpec{
		{Name: "name", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "hits", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
		{Name: "w", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := segment.NewBuilder("wtbl", "w0", schema, segment.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		w := int64(1)
		for _, z := range zero {
			if i == z {
				w = 0
			}
		}
		if err := b.Add(segment.Row{"n" + strings.Repeat("x", i%3), int64(i), w}); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return []IndexedSegment{{Seg: seg}}
}

// TestExprFilterFailsWhereWalked: an expression filter evaluates the
// documents a document-at-a-time scan would, on both rungs. A failing
// document does not match; its error fails the query unless a selection has
// kept its rows before the scan ends, and it is the first failing
// document's error.
func TestExprFilterFailsWhereWalked(t *testing.T) {
	segs := failingWidthSegment(t, 1500, 1700)
	const width = "timeBucket: width must be a positive integer"
	cases := []struct {
		q        string
		wantErr  string // "" for an answer
		lastHits int64  // the answer's last row
	}{
		{"SELECT hits FROM wtbl WHERE timeBucket(hits, w) >= 0 LIMIT 5", "", 4},
		// Past document 1500, which fails and is left out, and 1700.
		{"SELECT hits FROM wtbl WHERE timeBucket(hits, w) >= 0 LIMIT 1501", "", 1501},
		{"SELECT hits FROM wtbl WHERE timeBucket(hits, w) >= 0 LIMIT 1700", "", 1701},
		{"SELECT hits FROM wtbl WHERE timeBucket(hits, w) >= 0 LIMIT 2999", width, 0},
		{"SELECT count(*) FROM wtbl WHERE timeBucket(hits, w) >= 0", width, 0},
		// Filtering the candidates of a leaf that never reaches 1500.
		{"SELECT hits FROM wtbl WHERE hits < 10 AND timeBucket(hits, w) >= 0", "", 9},
		// Either side of the comparison.
		{"SELECT count(*) FROM wtbl WHERE hits + 0 < timeBucket(hits, w) + 10000", width, 0},
	}
	for _, c := range cases {
		for _, rowPath := range []bool{false, true} {
			res, err := Run(context.Background(), c.q, segs, nil, ForceRungs(Options{}, rowPath))
			switch {
			case c.wantErr != "":
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Errorf("%q (row path %v): got %v, want %q", c.q, rowPath, err, c.wantErr)
				}
			case err != nil:
				t.Errorf("%q (row path %v): %v", c.q, rowPath, err)
			case res.Rows[len(res.Rows)-1][0] != c.lastHits:
				t.Errorf("%q (row path %v): last row %v, want hits %d", c.q, rowPath, res.Rows[len(res.Rows)-1], c.lastHits)
			}
		}
	}
}

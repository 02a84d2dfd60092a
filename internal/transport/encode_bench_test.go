package transport

import (
	"bytes"
	"fmt"
	"testing"

	"pinot/internal/pql"
	"pinot/internal/query"
)

// benchResponse builds a group-by response of realistic size: 200 groups of
// two aggregation states each, the shape a server sends per scatter leg.
func benchResponse() *QueryResponse {
	exprs := []pql.Expression{{IsAgg: true, Func: pql.Count, Column: "*"}, {IsAgg: true, Func: pql.Sum, Column: "x"}}
	groups := query.NewGroupTable(2, exprs)
	for i := 0; i < 200; i++ {
		addGroup(groups, []any{fmt.Sprintf("cat%d", i%10), int64(i)}, &query.AggState{Count: int64(i * 7)}, &query.AggState{Sum: float64(i) * 1.5})
	}
	return &QueryResponse{
		Result: &query.Intermediate{
			Kind:      query.KindGroupBy,
			AggExprs:  exprs,
			GroupCols: []string{"category", "bucket"},
			Groups:    groups,
			Stats:     query.Stats{NumDocsScanned: 123456, NumSegmentsQueried: 16, SegmentsMatched: 16},
		},
	}
}

func BenchmarkEncodeResponse(b *testing.B) {
	r := benchResponse()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeResponse(r); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeResponsePoolRoundTrip guards the pool against aliasing: two
// consecutive encodes must not share backing memory, and the payload must
// decode back to the original.
func TestEncodeResponsePoolRoundTrip(t *testing.T) {
	r := benchResponse()
	first, err := EncodeResponse(r)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte(nil), first...)
	if _, err := EncodeResponse(benchResponse()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, snapshot) {
		t.Fatal("pooled buffer aliased a previously returned payload")
	}
	back, err := DecodeResponse(first)
	if err != nil {
		t.Fatal(err)
	}
	if back.Result.Groups.Len() != r.Result.Groups.Len() {
		t.Fatalf("round trip lost groups: %d vs %d", back.Result.Groups.Len(), r.Result.Groups.Len())
	}
	if back.Result.Stats != r.Result.Stats {
		t.Fatalf("round trip changed stats: %+v vs %+v", back.Result.Stats, r.Result.Stats)
	}
}

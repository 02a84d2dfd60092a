package transport

import (
	"context"
	"testing"

	"pinot/internal/pql"
	"pinot/internal/query"
)

func TestResponseRoundTrip(t *testing.T) {
	inter := query.NewAggIntermediate([]pql.Expression{
		{IsAgg: true, Func: pql.Count, Column: "*"},
		{IsAgg: true, Func: pql.Sum, Column: "clicks"},
	})
	inter.Groups.SetState(0, 0, query.AggState{Count: 42})
	inter.Groups.SetState(0, 1, query.AggState{Sum: 3.5})
	inter.Stats.NumDocsScanned = 7
	resp := &QueryResponse{Result: inter, Exceptions: []string{"warn"}}
	data, err := EncodeResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if g := got.Result.Groups; g.State(0, 0).Count != 42 || g.State(0, 1).Sum != 3.5 {
		t.Fatalf("aggs = %+v %+v", g.State(0, 0), g.State(0, 1))
	}
	if got.Result.Stats.NumDocsScanned != 7 || got.Exceptions[0] != "warn" {
		t.Fatalf("stats/exceptions lost: %+v", got)
	}
	if _, err := DecodeResponse([]byte("junk")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestGroupByRoundTrip(t *testing.T) {
	exprs := parsedAggs("SELECT SUM(x) FROM t GROUP BY country, bucket")
	inter := &query.Intermediate{
		Kind:      query.KindGroupBy,
		AggExprs:  exprs,
		GroupCols: []string{"country", "bucket"},
		Groups:    query.NewGroupTable(2, exprs),
	}
	s := &query.AggState{Sum: 5}
	addGroup(inter.Groups, []any{"us", int64(7)}, s)

	data, err := EncodeResponse(&QueryResponse{Result: inter})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	// Typed group values survive the wire (int64 stays int64).
	if v := got.Result.Groups.Values(0); v[0] != "us" || v[1] != int64(7) {
		t.Fatalf("typed value lost: %#v", v)
	}
	if got.Result.Groups.State(0, 0).Sum != 5 {
		t.Fatalf("group agg lost")
	}
}

func TestSelectionRoundTrip(t *testing.T) {
	inter := selectionOf([]string{"a", "b"}, 0, []any{int64(1), []any{"x"}}, []any{int64(2), []any{"m", "n"}})
	data, err := EncodeResponse(&QueryResponse{Result: inter})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponse(data)
	if err != nil {
		t.Fatal(err)
	}
	if rows := selectionRows(got.Result); rows[1][1].([]any)[0] != "m" {
		t.Fatalf("multi-value cell lost: %#v", rows)
	}
}

func TestRegistryFunc(t *testing.T) {
	var r Registry = RegistryFunc(func(instance string) (ServerClient, bool) {
		if instance == "known" {
			return fakeClient{}, true
		}
		return nil, false
	})
	if _, ok := r.ServerClient("known"); !ok {
		t.Fatal("known instance missing")
	}
	if _, ok := r.ServerClient("other"); ok {
		t.Fatal("unknown instance resolved")
	}
}

type fakeClient struct{}

func (fakeClient) Execute(ctx context.Context, req *QueryRequest) (*QueryResponse, error) {
	return &QueryResponse{}, nil
}

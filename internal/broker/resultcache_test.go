package broker

import (
	"context"
	"reflect"
	"testing"

	"pinot/internal/pql"
	"pinot/internal/query"
	"pinot/internal/transport"
)

// groupByServers makes every fake server answer a group-by over "d" with one
// group per routed segment, keyed by the segment's name. Counts differ per
// group, so the final order never compares group values. mangle, when set,
// edits each answer before it leaves the server.
func groupByServers(env *testEnv, mangle func(*query.Intermediate)) {
	for _, s := range env.servers {
		s.respond = func(req *transport.QueryRequest) *query.Intermediate {
			exprs := []pql.Expression{{IsAgg: true, Func: pql.Count, Column: "*"}}
			out := &query.Intermediate{
				Kind:      query.KindGroupBy,
				AggExprs:  exprs,
				GroupCols: []string{"d"},
				Groups:    query.NewGroupTable(1, exprs),
			}
			for _, seg := range req.Segments {
				g, err := out.Groups.Upsert([]any{seg})
				if err != nil {
					panic(err)
				}
				out.Groups.SetState(g, 0, query.AggState{Count: 10 + int64(seg[len(seg)-1]-'0')})
			}
			if mangle != nil {
				mangle(out)
			}
			return out
		}
	}
}

func serverCalls(env *testEnv) int {
	n := 0
	for _, s := range env.servers {
		n += s.callCount()
	}
	return n
}

const groupByPQL = "SELECT count(*) FROM ev GROUP BY d"

// storedGather returns the result tier's entry for groupByPQL on ev_OFFLINE.
func storedGather(t *testing.T, env *testEnv) *cachedGather {
	t.Helper()
	v, ok := env.broker.ResultCache().Get("ev_OFFLINE", "ev", resultCacheKeyOf(t, env))
	if !ok {
		t.Fatal("no result-cache entry for the query")
	}
	return v.(*cachedGather)
}

// TestResultCacheHitIsPrivateAndMarked: the tier holds bytes of exactly the
// charged length, a hit answers without a server call, equals the cold
// answer but for the hit marker, and is a fresh value every time.
func TestResultCacheHitIsPrivateAndMarked(t *testing.T) {
	env := newTestEnv(t, Config{})
	env.addTable(t, "ev_OFFLINE", map[string][]string{"s1": {"seg0", "seg1"}, "s2": {"seg2"}}, 10)
	groupByServers(env, nil)
	cold, err := env.broker.Execute(context.Background(), groupByPQL, "")
	if err != nil || cold.Partial || cold.Stats.ResultCacheHit || len(cold.Rows) != 3 {
		t.Fatalf("cold: %+v, err %v", cold, err)
	}
	calls := serverCalls(env)
	e := storedGather(t, env)
	if e.queried != 2 || e.responded != 2 || len(e.encoded) != cap(e.encoded) {
		t.Fatalf("entry: queried %d, responded %d, %d bytes in a %d-byte array", e.queried, e.responded, len(e.encoded), cap(e.encoded))
	}
	if got, want := env.broker.ResultCache().Bytes(), int64(len(e.encoded)+len(resultCacheKeyOf(t, env))); got != want {
		t.Fatalf("the tier charges %d bytes for an entry of %d", got, want)
	}
	for i := 0; i < 2; i++ {
		warm, err := env.broker.Execute(context.Background(), groupByPQL, "")
		if err != nil || !warm.Stats.ResultCacheHit || warm.ServersQueried != 2 || warm.ServersResponded != 2 {
			t.Fatalf("warm: %+v, err %v", warm, err)
		}
		warm.Stats.ResultCacheHit = false
		warm.Trace, cold.Trace = nil, nil
		if !reflect.DeepEqual(warm.Rows, cold.Rows) || !reflect.DeepEqual(warm.Stats, cold.Stats) {
			t.Fatalf("warm answer %d diverges:\n got %+v\nwant %+v", i, warm, cold)
		}
	}
	if serverCalls(env) != calls {
		t.Fatalf("a hit made %d server calls", serverCalls(env)-calls)
	}
}

func resultCacheKeyOf(t *testing.T, env *testEnv) string {
	t.Helper()
	rs, err := env.broker.routingFor("ev_OFFLINE")
	if err != nil {
		t.Fatal(err)
	}
	q, err := pql.Parse(groupByPQL)
	if err != nil {
		t.Fatal(err)
	}
	return resultCacheKey(rs, "", q)
}

// TestResultCacheCorruptEntryIsAMiss: bytes that no longer decode make the
// broker scatter as on a miss; the answer is the cold answer, unmarked, the
// entry is replaced, and the next query hits again.
func TestResultCacheCorruptEntryIsAMiss(t *testing.T) {
	env := newTestEnv(t, Config{})
	env.addTable(t, "ev_OFFLINE", map[string][]string{"s1": {"seg0", "seg1"}, "s2": {"seg2"}}, 10)
	groupByServers(env, nil)
	cold, err := env.broker.Execute(context.Background(), groupByPQL, "")
	if err != nil {
		t.Fatal(err)
	}
	calls := serverCalls(env)
	storedGather(t, env).encoded[0] ^= 0xff // the result kind: no longer one the decoder knows

	again, err := env.broker.Execute(context.Background(), groupByPQL, "")
	if err != nil || again.Partial || again.Stats.ResultCacheHit || !reflect.DeepEqual(again.Rows, cold.Rows) {
		t.Fatalf("over a damaged entry: %+v, err %v; want the cold answer %+v", again, err, cold.Rows)
	}
	if serverCalls(env) != calls+2 {
		t.Fatalf("%d server calls over a damaged entry, want a full scatter of 2", serverCalls(env)-calls)
	}
	if _, err := query.DecodeIntermediate(storedGather(t, env).encoded); err != nil {
		t.Fatalf("the damaged entry was not replaced: %v", err)
	}
	warm, err := env.broker.Execute(context.Background(), groupByPQL, "")
	if err != nil || !warm.Stats.ResultCacheHit || !reflect.DeepEqual(warm.Rows, cold.Rows) {
		t.Fatalf("after the replacement: %+v, err %v", warm, err)
	}
}

// TestResultCacheUnencodableResultIsNotStored: servers in the same process
// may hand over a value the layout does not carry (here an expression node
// the parser never builds). The query is answered from it and the tier stays
// empty.
func TestResultCacheUnencodableResultIsNotStored(t *testing.T) {
	env := newTestEnv(t, Config{})
	env.addTable(t, "ev_OFFLINE", map[string][]string{"s1": {"seg0", "seg1"}, "s2": {"seg2"}}, 10)
	groupByServers(env, func(r *query.Intermediate) { r.AggExprs[0].Arg = unknownExpr{} })
	for i := 0; i < 2; i++ {
		res, err := env.broker.Execute(context.Background(), groupByPQL, "")
		if err != nil || res.Partial || res.Stats.ResultCacheHit || len(res.Rows) != 3 {
			t.Fatalf("run %d: %+v, err %v", i, res, err)
		}
	}
	if n := env.broker.ResultCache().Len(); n != 0 {
		t.Fatalf("an unencodable result left %d entries", n)
	}
	if serverCalls(env) != 4 {
		t.Fatalf("%d server calls for two uncached queries, want 4", serverCalls(env))
	}
}

// unknownExpr is an expression node the parser never builds.
type unknownExpr struct{ pql.ColumnRef }

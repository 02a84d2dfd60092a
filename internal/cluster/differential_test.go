package cluster

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pinot/internal/broker"
	"pinot/internal/pql"
	"pinot/internal/query"
	"pinot/internal/wire"
)

// differentialQueries builds the mixed corpus: plain aggregations, group-bys
// (with and without TOP), ordered selections, and filters that prune to
// empty — each against both the offline and the realtime table.
func differentialQueries() []string {
	tables := []string{"events", "rtevents"}
	aggs := []string{
		"count(*)", "sum(clicks)", "min(clicks)", "max(clicks)", "avg(clicks)",
		"count(*), sum(clicks), min(day), max(day)",
	}
	filters := []string{
		"",
		"WHERE country = 'us'",
		"WHERE country IN ('de', 'fr')",
		"WHERE memberId = 7",
		"WHERE clicks >= 100 AND clicks < 150",
		"WHERE day BETWEEN 101 AND 103",
		"WHERE NOT country = 'us'",
		"WHERE day > 9000",      // pruned to empty by zone maps
		"WHERE memberId = 4242", // matches nothing anywhere
	}
	var qs []string
	for _, tb := range tables {
		for _, agg := range aggs {
			for _, f := range filters {
				qs = append(qs, strings.TrimSpace(fmt.Sprintf("SELECT %s FROM %s %s", agg, tb, f)))
			}
		}
	}
	groupAggs := []string{"count(*)", "sum(clicks)", "max(clicks)"}
	groupCols := []string{"country", "memberId", "day"}
	groupFilters := []string{"", "WHERE country IN ('us', 'de')", "WHERE clicks < 120", "WHERE day > 9000"}
	for _, tb := range tables {
		for _, agg := range groupAggs {
			for _, col := range groupCols {
				for _, f := range groupFilters {
					qs = append(qs, strings.TrimSpace(fmt.Sprintf("SELECT %s FROM %s %s GROUP BY %s", agg, tb, f, col)))
				}
			}
		}
	}
	selections := []string{
		"SELECT memberId, clicks FROM %s WHERE country = 'us' ORDER BY clicks LIMIT 20",
		"SELECT country, clicks FROM %s WHERE memberId = 3 ORDER BY clicks DESC LIMIT 10",
		"SELECT clicks FROM %s WHERE clicks BETWEEN 42 AND 90 ORDER BY clicks",
		"SELECT memberId, clicks FROM %s WHERE day > 9000 ORDER BY clicks LIMIT 5",
		"SELECT clicks, day FROM %s WHERE country = 'fr' ORDER BY clicks DESC LIMIT 7, 13",
		"SELECT country, memberId, clicks FROM %s ORDER BY clicks LIMIT 25",
	}
	for _, tb := range tables {
		for _, s := range selections {
			qs = append(qs, fmt.Sprintf(s, tb))
		}
		qs = append(qs,
			"SELECT count(*) FROM "+tb+" GROUP BY country TOP 2",
			"SELECT sum(clicks) FROM "+tb+" GROUP BY memberId TOP 5",
			"SELECT count(*) FROM "+tb+" WHERE clicks >= 10 GROUP BY day TOP 3",
			"SELECT max(clicks) FROM "+tb+" GROUP BY country TOP 1",
		)
	}
	return qs
}

// canonicalResponse renders the deterministic part of a response — columns,
// rows, stats, partial flag, exceptions — to a comparable string. Row order
// is semantics when the query has an ORDER BY (clicks is a unique key in
// this corpus, so ordered results are fully deterministic); without one the
// rows are a set and are canonicalized by sorting.
func canonicalResponse(pqlText string, res *broker.Response) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprintf("%#v", r)
	}
	if !strings.Contains(pqlText, "ORDER BY") && !strings.Contains(pqlText, "GROUP BY") {
		sort.Strings(rows)
	}
	return fmt.Sprintf("cols=%#v rows=%v stats=%+v partial=%v exceptions=%#v",
		res.Columns, rows, res.Stats, res.Partial, res.Exceptions)
}

// TestDifferentialQueriesCrossTheCodec holds the data plane's request codec
// to what servers executed when they parsed the text the broker rendered:
// every query of the corpus, and both halves of its hybrid rewrite, arrives
// as it was sent and as Parse builds it from its rendering.
func TestDifferentialQueriesCrossTheCodec(t *testing.T) {
	for _, text := range differentialQueries() {
		q, err := pql.Parse(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		for _, sent := range []*pql.Query{
			q,
			q.WithExtraFilter(pql.Comparison{Column: "day", Op: pql.OpLt, Value: int64(104)}),
			q.WithExtraFilter(pql.Comparison{Column: "day", Op: pql.OpGte, Value: int64(104)}),
		} {
			parsed, err := pql.Parse(sent.String())
			if err != nil {
				t.Fatalf("%s: %v", sent, err)
			}
			if got := crossCodec(t, sent); !reflect.DeepEqual(got, parsed) || !reflect.DeepEqual(got, sent) {
				t.Fatalf("%s crosses the codec as %#v; sent %#v, parsed %#v", sent, got, sent, parsed)
			}
		}
	}
}

// crossCodec encodes q as a request carries it and decodes it as a server does.
func crossCodec(t *testing.T, q *pql.Query) *pql.Query {
	t.Helper()
	e := wire.GetEncoder()
	defer e.Release()
	query.AppendQuery(e, q)
	if err := e.Err(); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	d := wire.NewDecoder(e.Bytes())
	got := query.ReadQuery(&d)
	if err := d.Finish(); err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return got
}

// Differential test for segment pruning: every query must produce
// byte-identical rows whether pruning runs (the default) or not
// (Options.DisablePruning), Stats must agree on everything except the
// pruning counters and the scan savings pruning legitimately buys, and the
// counters themselves must satisfy the accounting identity.
package query

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"pinot/internal/segment"
)

func runBothPruneModes(t *testing.T, q string, segs []IndexedSegment, schema *segment.Schema, candidates int) {
	t.Helper()
	ctx := context.Background()
	on, errOn := Run(ctx, q, segs, schema, Options{})
	off, errOff := Run(ctx, q, segs, schema, Options{DisablePruning: true})
	if (errOn == nil) != (errOff == nil) {
		t.Fatalf("%q: error mismatch: on=%v off=%v", q, errOn, errOff)
	}
	if errOn != nil {
		if errOn.Error() != errOff.Error() {
			t.Fatalf("%q: error text mismatch: on=%v off=%v", q, errOn, errOff)
		}
		return
	}

	// Rows and columns must be byte-identical.
	type payload struct {
		Columns []string
		Rows    [][]any
	}
	oj, err := json.Marshal(payload{on.Columns, on.Rows})
	if err != nil {
		t.Fatalf("%q: marshal: %v", q, err)
	}
	fj, err := json.Marshal(payload{off.Columns, off.Rows})
	if err != nil {
		t.Fatalf("%q: marshal: %v", q, err)
	}
	if string(oj) != string(fj) {
		t.Fatalf("%q: results diverge:\npruned:   %s\nunpruned: %s", q, oj, fj)
	}

	// Candidate accounting must agree: pruning changes how segments are
	// answered, never how many were considered or how many matched.
	so, sf := on.Stats, off.Stats
	if so.NumSegmentsQueried != sf.NumSegmentsQueried ||
		so.NumSegmentsMatched != sf.NumSegmentsMatched ||
		so.TotalDocs != sf.TotalDocs {
		t.Fatalf("%q: candidate accounting diverges:\npruned:   %+v\nunpruned: %+v", q, so, sf)
	}
	// Pruning may only reduce scan work, never add any.
	if so.NumDocsScanned > sf.NumDocsScanned || so.NumEntriesScanned > sf.NumEntriesScanned {
		t.Fatalf("%q: pruning increased scan work:\npruned:   %+v\nunpruned: %+v", q, so, sf)
	}
	// Unpruned mode must not move any pruning counter.
	if sf.SegmentsPrunedByBroker != 0 || sf.SegmentsPrunedByServer != 0 ||
		sf.SegmentsPrunedByValue != 0 || sf.SegmentsMatched != 0 {
		t.Fatalf("%q: pruning counters moved while disabled: %+v", q, sf)
	}
	// Pruned mode must account for every candidate exactly once.
	if so.SegmentsPrunedByServer+so.SegmentsPrunedByValue+so.SegmentsMatched != candidates {
		t.Fatalf("%q: accounting identity broken over %d candidates: %+v", q, candidates, so)
	}
}

// prunedDiffQueries samples 200+ query texts over the prune corpus: all
// aggregation shapes, group-bys, selections with ORDER BY/LIMIT, and WHERE
// clauses engineered so all three prune outcomes occur across segments.
func prunedDiffQueries(r *rand.Rand, n int) []string {
	where := func() string {
		switch r.Intn(9) {
		case 0:
			return fmt.Sprintf(" WHERE category = 'cat%d'", r.Intn(16))
		case 1:
			return fmt.Sprintf(" WHERE day BETWEEN %d AND %d", 17000+r.Intn(45), 17000+r.Intn(45))
		case 2:
			return fmt.Sprintf(" WHERE bucket BETWEEN %d AND %d", r.Intn(500)-50, r.Intn(550))
		case 3:
			return fmt.Sprintf(" WHERE tags = 'tag%d'", r.Intn(7))
		case 4:
			return fmt.Sprintf(" WHERE NOT tags IN ('tag%d', 'tag%d')", r.Intn(6), r.Intn(6))
		case 5:
			return fmt.Sprintf(" WHERE category != 'cat%d' AND day >= %d", r.Intn(16), 17000+r.Intn(40))
		case 6:
			return fmt.Sprintf(" WHERE bucket IN (%d, %d) OR category = 'cat%d'", r.Intn(450), r.Intn(450), r.Intn(16))
		case 7:
			return fmt.Sprintf(" WHERE hits < %d AND bucket >= %d", r.Intn(1100), r.Intn(450))
		default:
			return ""
		}
	}
	out := make([]string, n)
	for i := range out {
		switch r.Intn(6) {
		case 0:
			out[i] = "SELECT count(*), sum(hits) FROM ptbl" + where()
		case 1:
			out[i] = "SELECT min(hits), max(hits), avg(hits) FROM ptbl" + where()
		case 2:
			out[i] = "SELECT distinctcount(bucket) FROM ptbl" + where()
		case 3:
			out[i] = fmt.Sprintf("SELECT sum(hits) FROM ptbl%s GROUP BY category TOP %d", where(), 1+r.Intn(10))
		case 4:
			out[i] = fmt.Sprintf("SELECT category, bucket, hits FROM ptbl%s ORDER BY hits DESC, bucket LIMIT %d", where(), 1+r.Intn(25))
		default:
			out[i] = fmt.Sprintf("SELECT count(*) FROM ptbl%s GROUP BY category, bucket TOP %d", where(), 1+r.Intn(12))
		}
	}
	return out
}

func TestPruningDifferential(t *testing.T) {
	segs := pruneCorpus(t, 5, 500)
	schema := pruneCorpusSchema(t)
	// A realtime (mutable) segment rides along: never prunable, always a
	// candidate that must land in SegmentsMatched.
	ms, err := segment.NewMutableSegment("ptbl", "ptbl_rt", schema, segment.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(123))
	for i := 0; i < 400; i++ {
		row := segment.Row{
			fmt.Sprintf("cat%d", r.Intn(15)),
			int64(r.Intn(500)),
			[]string{fmt.Sprintf("tag%d", r.Intn(6))},
			int64(r.Intn(1000)),
			int64(17000 + r.Intn(50)),
		}
		if err := ms.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	segs = append(segs, IndexedSegment{Seg: ms.Snapshot()})

	queries := prunedDiffQueries(r, 220)
	for _, q := range queries {
		runBothPruneModes(t, q, segs, schema, len(segs))
	}
}

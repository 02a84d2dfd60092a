// A server executes against segments loaded from their blobs — views of the
// bytes the object store holds, shared by every replica — not against the
// built ones the differential harness uses. This suite runs the same query
// pools over both and holds the loaded side to three things: the same bytes
// out, the oracle's answer, and not one byte of the blob changed by any
// operator.
package query_test

import (
	"crypto/sha256"
	"math/rand"
	"testing"

	"pinot/internal/query"
	"pinot/internal/segment"
	"pinot/internal/startree"
	"pinot/internal/workload"
)

// loadedSegment is a built segment beside what a server makes of its blob.
type loadedSegment struct {
	built, loaded query.IndexedSegment
	blob          []byte
	sum           [sha256.Size]byte
}

// load marshals a built segment (with its star-tree, if it has one) and
// loads the blob as a server does. shift moves the blob off its 8-byte
// alignment, which turns every view into a decoded copy.
func load(t *testing.T, built query.IndexedSegment, shift int) *loadedSegment {
	t.Helper()
	blob, err := built.Seg.(*segment.Segment).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	room := make([]byte, len(blob)+8)
	blob = room[shift : shift+copy(room[shift:], blob)]
	seg, err := segment.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := startree.Load(seg)
	if err != nil {
		t.Fatal(err)
	}
	if (tree != nil) != (built.Tree != nil) {
		t.Fatalf("segment %s: built with a star-tree %v, loaded with one %v", seg.Name(), built.Tree != nil, tree != nil)
	}
	return &loadedSegment{built: built, loaded: query.IndexedSegment{Seg: seg, Tree: tree}, blob: blob, sum: sha256.Sum256(blob)}
}

// sameAnswers runs q over the built and the loaded segments, compares
// results and Stats, and holds the loaded side to the oracle of its segments.
func sameAnswers(t *testing.T, label, q string, segs []*loadedSegment, schema *segment.Schema, opt query.Options, oracle *query.Oracle) {
	t.Helper()
	built, loaded := make([]query.IndexedSegment, len(segs)), make([]query.IndexedSegment, len(segs))
	for i, s := range segs {
		built[i], loaded[i] = s.built, s.loaded
	}
	want, got := ask(t, q, built, schema, opt), ask(t, q, loaded, schema, opt)
	if got.body != want.body || (got.res != nil && got.res.Stats != want.res.Stats) {
		t.Fatalf("%s: %q: loaded segments answer\n  %s %+v\nbuilt ones\n  %s %+v", label, q, got.body, got.res, want.body, want.res)
	}
	holdToOracle(t, label+" "+q, oracle, q, map[string]outcome{"loaded": got})
}

// loadedOracle is the oracle of the loaded side of segs.
func loadedOracle(segs []*loadedSegment, schema *segment.Schema) *query.Oracle {
	loaded := make([]query.IndexedSegment, len(segs))
	for i, s := range segs {
		loaded[i] = s.loaded
	}
	return query.NewOracle(loaded, schema)
}

func unwritten(t *testing.T, segs []*loadedSegment) {
	t.Helper()
	for _, s := range segs {
		if sha256.Sum256(s.blob) != s.sum {
			t.Errorf("segment %s: a query wrote to the blob it was served from", s.loaded.Seg.Name())
		}
	}
}

func TestLoadedSegmentsAnswerAlikeAndStayUnwritten(t *testing.T) {
	// Star-tree, inverted and plain segments of the anomaly workload: the
	// star-tree plan, bitmap unions and the scan kernels.
	d := workload.Anomaly(workload.SizeConfig{Segments: 2, RowsPerSegment: 4000, Seed: 11})
	queries := d.Queries(70, 1234)
	for _, v := range []workload.Variant{
		{Name: "noindex"},
		{Name: "inverted", Index: segment.IndexConfig{InvertedColumns: d.InvertedColumns}},
		{Name: "startree", StarTree: d.StarTree},
		{Name: "druid", Index: segment.IndexConfig{InvertedColumns: d.InvertedColumns}, Druid: true},
	} {
		built, _, err := d.BuildIndexed(v)
		if err != nil {
			t.Fatal(err)
		}
		var segs []*loadedSegment
		for _, is := range built {
			segs = append(segs, load(t, is, 0))
		}
		oracle := loadedOracle(segs, d.Schema)
		for _, q := range queries {
			sameAnswers(t, "anomaly/"+v.Name, q, segs, d.Schema, v.PlanOptions(), oracle)
		}
		unwritten(t, segs)
	}

	// The mixed fixture: a multi-value column, inverted indexes, a sorted
	// column, and one segment loaded from a misaligned buffer, whose arrays
	// are decoded copies and must answer identically.
	schema := diffSchema(t)
	r := rand.New(rand.NewSource(99))
	build := func(name string, cfg segment.IndexConfig, shift int) *loadedSegment {
		return load(t, diffSegment(t, r, schema, name, cfg, 3000, false), shift)
	}
	segs := []*loadedSegment{
		build("diff_plain", segment.IndexConfig{}, 0),
		build("diff_inv", segment.IndexConfig{InvertedColumns: []string{"category", "tags", "bucket"}}, 0),
		build("diff_sorted", segment.IndexConfig{SortColumn: "bucket"}, 0),
		build("diff_shifted", segment.IndexConfig{SortColumn: "bucket", InvertedColumns: []string{"category", "tags"}}, 1),
	}
	mixed := diffQueries(r, 60)
	run := func(label string) {
		oracle := loadedOracle(segs, schema)
		for _, q := range mixed {
			sameAnswers(t, label, q, segs, schema, query.Options{}, oracle)
		}
		for i, where := range scanLeafTrees() {
			if i%4 == 0 {
				sameAnswers(t, label+"/trees", "SELECT count(*), sum(score) FROM difftbl WHERE "+where, segs, schema, query.Options{}, oracle)
			}
		}
		druidish := query.Options{ForceBitmap: true, DisableSorted: true, DisableStarTree: true, DisableMetadataPlans: true}
		for _, q := range mixed[:30] {
			sameAnswers(t, label+"/forcebitmap", q, segs, schema, druidish, oracle)
		}
	}
	run("mixed")
	unwritten(t, segs)

	// An index added to a segment while it is served from its blob (paper
	// 3.2) is built beside the blob: the bitmap plans now run on the loaded
	// side of the plain segment too, and the blob still hashes the same.
	for _, col := range []string{"category", "tags", "bucket"} {
		for _, s := range segs[:1] {
			for _, is := range []query.IndexedSegment{s.built, s.loaded} {
				if err := is.Seg.(*segment.Segment).AddInvertedIndex(col); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	run("mixed/reindexed")
	unwritten(t, segs)
}

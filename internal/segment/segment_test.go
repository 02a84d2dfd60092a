package segment

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("events", []FieldSpec{
		{Name: "country", Type: TypeString, Kind: Dimension, SingleValue: true},
		{Name: "browser", Type: TypeString, Kind: Dimension, SingleValue: true},
		{Name: "memberId", Type: TypeLong, Kind: Dimension, SingleValue: true},
		{Name: "tags", Type: TypeString, Kind: Dimension, SingleValue: false},
		{Name: "clicks", Type: TypeLong, Kind: Metric, SingleValue: true},
		{Name: "revenue", Type: TypeDouble, Kind: Metric, SingleValue: true},
		{Name: "day", Type: TypeLong, Kind: Time, SingleValue: true, TimeUnit: "DAYS"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func buildTestSegment(t *testing.T, cfg IndexConfig) *Segment {
	t.Helper()
	b, err := NewBuilder("events", "events_0", testSchema(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{"us", "chrome", int64(3), []string{"a", "b"}, int64(10), 1.5, int64(100)},
		{"de", "firefox", int64(1), []string{"b"}, int64(20), 2.5, int64(101)},
		{"us", "safari", int64(2), []string{"c"}, int64(30), 3.5, int64(100)},
		{"fr", "chrome", int64(1), []string{"a", "c"}, int64(40), 4.5, int64(102)},
		{"de", "chrome", int64(3), []string{"b", "c"}, int64(50), 5.5, int64(101)},
	}
	for _, r := range rows {
		if err := b.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

func TestSchemaValidation(t *testing.T) {
	cases := []struct {
		name   string
		fields []FieldSpec
	}{
		{"empty name", []FieldSpec{{Name: "", Type: TypeLong, Kind: Dimension, SingleValue: true}}},
		{"dup", []FieldSpec{
			{Name: "a", Type: TypeLong, Kind: Dimension, SingleValue: true},
			{Name: "a", Type: TypeLong, Kind: Dimension, SingleValue: true},
		}},
		{"string metric", []FieldSpec{{Name: "m", Type: TypeString, Kind: Metric, SingleValue: true}}},
		{"mv metric", []FieldSpec{{Name: "m", Type: TypeLong, Kind: Metric, SingleValue: false}}},
		{"string time", []FieldSpec{{Name: "t", Type: TypeString, Kind: Time, SingleValue: true}}},
		{"two time cols", []FieldSpec{
			{Name: "t1", Type: TypeLong, Kind: Time, SingleValue: true},
			{Name: "t2", Type: TypeLong, Kind: Time, SingleValue: true},
		}},
	}
	for _, c := range cases {
		if _, err := NewSchema("s", c.fields); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
	if _, err := NewSchema("s", nil); err == nil {
		t.Error("no fields: expected error")
	}
}

func TestCanonicalize(t *testing.T) {
	if v, err := Canonicalize(TypeLong, 42); err != nil || v.(int64) != 42 {
		t.Fatalf("int→long: %v %v", v, err)
	}
	if v, err := Canonicalize(TypeLong, float64(7)); err != nil || v.(int64) != 7 {
		t.Fatalf("float64(7)→long: %v %v", v, err)
	}
	if _, err := Canonicalize(TypeLong, 7.5); err == nil {
		t.Fatal("7.5→long should fail")
	}
	if v, err := Canonicalize(TypeDouble, 3); err != nil || v.(float64) != 3 {
		t.Fatalf("int→double: %v %v", v, err)
	}
	if _, err := Canonicalize(TypeString, 3); err == nil {
		t.Fatal("int→string should fail")
	}
	if v, err := CanonicalizeField(FieldSpec{Name: "x", Type: TypeString, SingleValue: false}, "solo"); err != nil || !reflect.DeepEqual(v, []string{"solo"}) {
		t.Fatalf("scalar→mv: %v %v", v, err)
	}
	if v, err := CanonicalizeField(FieldSpec{Name: "x", Type: TypeLong, SingleValue: false}, []any{1, 2}); err != nil || !reflect.DeepEqual(v, []int64{1, 2}) {
		t.Fatalf("[]any→mv: %v %v", v, err)
	}
}

func TestBuilderBasics(t *testing.T) {
	seg := buildTestSegment(t, IndexConfig{})
	if seg.NumDocs() != 5 {
		t.Fatalf("NumDocs = %d", seg.NumDocs())
	}
	c := seg.Column("country")
	if c == nil {
		t.Fatal("country column missing")
	}
	if c.Cardinality() != 3 {
		t.Fatalf("country cardinality = %d", c.Cardinality())
	}
	// Dictionary is value-sorted: de < fr < us.
	if c.Value(0) != "de" || c.Value(1) != "fr" || c.Value(2) != "us" {
		t.Fatalf("dictionary order wrong: %v %v %v", c.Value(0), c.Value(1), c.Value(2))
	}
	// Forward index preserves input order without a sort column.
	wantCountry := []string{"us", "de", "us", "fr", "de"}
	for doc, want := range wantCountry {
		if got := c.Value(c.DictID(doc)); got != want {
			t.Fatalf("doc %d country = %v, want %v", doc, got, want)
		}
	}
	// Metric column raw access.
	m := seg.Column("clicks")
	if m.HasDictionary() {
		t.Fatal("metric should not be dictionary-encoded")
	}
	if m.Long(2) != 30 {
		t.Fatalf("clicks[2] = %d", m.Long(2))
	}
	if m.MinValue().(int64) != 10 || m.MaxValue().(int64) != 50 {
		t.Fatalf("clicks min/max = %v/%v", m.MinValue(), m.MaxValue())
	}
	// Time range in metadata.
	min, max, ok := seg.TimeRange()
	if !ok || min != 100 || max != 102 {
		t.Fatalf("time range = %d..%d ok=%v", min, max, ok)
	}
	if seg.Column("nope") != nil {
		t.Fatal("missing column should be nil")
	}
}

func TestBuilderSortColumn(t *testing.T) {
	seg := buildTestSegment(t, IndexConfig{SortColumn: "memberId"})
	c := seg.Column("memberId")
	if !c.IsSorted() {
		t.Fatal("memberId not detected as sorted")
	}
	prev := int64(-1)
	for doc := 0; doc < seg.NumDocs(); doc++ {
		v := c.Value(c.DictID(doc)).(int64)
		if v < prev {
			t.Fatalf("docs not sorted: doc %d value %d < %d", doc, v, prev)
		}
		prev = v
	}
	// Sorted ranges: memberId=1 occupies docs [0,2), 2 → [2,3), 3 → [3,5).
	id, ok := c.IndexOf(int64(1))
	if !ok {
		t.Fatal("memberId 1 missing from dict")
	}
	if s, e := c.DocIDRange(id, id+1); s != 0 || e != 2 {
		t.Fatalf("range for 1 = [%d,%d)", s, e)
	}
	id3, _ := c.IndexOf(int64(3))
	if s, e := c.DocIDRange(id3, id3+1); s != 3 || e != 5 {
		t.Fatalf("range for 3 = [%d,%d)", s, e)
	}
	if s, e := c.DocIDRange(id, id3+1); s != 0 || e != 5 {
		t.Fatalf("range for 1..3 = [%d,%d)", s, e)
	}
	if s, e := c.DocIDRange(c.Cardinality(), c.Cardinality()+1); s != e {
		t.Fatalf("range of an id past the dictionary = [%d,%d)", s, e)
	}
	// Other columns permuted consistently: doc 0 must be memberId=1 row
	// (de/firefox, clicks=20) — first inserted among memberId=1 rows.
	if got := seg.Column("clicks").Long(0); got != 20 {
		t.Fatalf("clicks[0] after sort = %d", got)
	}
	if got := seg.Column("country").Value(seg.Column("country").DictID(0)); got != "de" {
		t.Fatalf("country[0] after sort = %v", got)
	}
}

func TestBuilderValidation(t *testing.T) {
	sch := testSchema(t)
	if _, err := NewBuilder("t", "s", sch, IndexConfig{SortColumn: "nope"}); err == nil {
		t.Fatal("bad sort column accepted")
	}
	if _, err := NewBuilder("t", "s", sch, IndexConfig{SortColumn: "clicks"}); err == nil {
		t.Fatal("metric sort column accepted")
	}
	if _, err := NewBuilder("t", "s", sch, IndexConfig{SortColumn: "tags"}); err == nil {
		t.Fatal("multi-value sort column accepted")
	}
	if _, err := NewBuilder("t", "s", sch, IndexConfig{InvertedColumns: []string{"clicks"}}); err == nil {
		t.Fatal("metric inverted column accepted")
	}
	b, _ := NewBuilder("t", "s", sch, IndexConfig{})
	if _, err := b.Build(); err == nil {
		t.Fatal("empty build accepted")
	}
	if err := b.Add(Row{"x"}); err == nil {
		t.Fatal("short row accepted")
	}
	if err := b.Add(Row{1, "chrome", int64(1), []string{"a"}, int64(1), 1.0, int64(1)}); err == nil {
		t.Fatal("wrong-typed row accepted")
	}
}

func TestInvertedIndex(t *testing.T) {
	seg := buildTestSegment(t, IndexConfig{InvertedColumns: []string{"country", "tags"}})
	c := seg.Column("country")
	if !c.HasInverted() {
		t.Fatal("country has no inverted index")
	}
	id, _ := c.IndexOf("us")
	got := c.Inverted(id).ToArray()
	if !reflect.DeepEqual(got, []uint32{0, 2}) {
		t.Fatalf("postings for us = %v", got)
	}
	// Multi-value inverted: tag "c" appears in docs 2, 3, 4.
	tc := seg.Column("tags")
	idc, _ := tc.IndexOf("c")
	if got := tc.Inverted(idc).ToArray(); !reflect.DeepEqual(got, []uint32{2, 3, 4}) {
		t.Fatalf("postings for tag c = %v", got)
	}
}

func TestAddInvertedIndexOnDemand(t *testing.T) {
	seg := buildTestSegment(t, IndexConfig{})
	if seg.Column("browser").HasInverted() {
		t.Fatal("unexpected inverted index")
	}
	if err := seg.AddInvertedIndex("browser"); err != nil {
		t.Fatal(err)
	}
	if !seg.Column("browser").HasInverted() {
		t.Fatal("inverted index not built")
	}
	// Idempotent.
	if err := seg.AddInvertedIndex("browser"); err != nil {
		t.Fatal(err)
	}
	if err := seg.AddInvertedIndex("nope"); err == nil {
		t.Fatal("AddInvertedIndex on missing column accepted")
	}
	if err := seg.AddInvertedIndex("clicks"); err == nil {
		t.Fatal("AddInvertedIndex on raw metric accepted")
	}
	b := seg.Column("browser")
	id, _ := b.IndexOf("chrome")
	if got := b.Inverted(id).Cardinality(); got != 3 {
		t.Fatalf("chrome postings = %d", got)
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	for _, cfg := range []IndexConfig{
		{SortColumn: "memberId", InvertedColumns: []string{"country"}},
		{InvertedColumns: []string{"tags"}},
	} {
		seg := buildTestSegment(t, cfg)
		seg.SetStarTreeData([]byte("fake star tree payload"))
		blob, err := seg.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(blob)
		if err != nil {
			t.Fatal(err)
		}
		assertSegmentsEqual(t, seg, got)
		if string(got.StarTreeData()) != "fake star tree payload" {
			t.Fatal("star tree data lost")
		}
		if got.SortedOn("memberId") != (cfg.SortColumn == "memberId") {
			t.Fatal("sort order not carried by the blob")
		}
		for _, name := range cfg.InvertedColumns {
			if !got.Column(name).HasInverted() {
				t.Fatalf("inverted index on %s lost", name)
			}
		}
		if again, err := got.Marshal(); err != nil || !bytes.Equal(again, blob) {
			t.Fatalf("a loaded segment marshals to different bytes (%v)", err)
		}
	}
	if _, err := Unmarshal([]byte("garbage data here")); err == nil {
		t.Fatal("garbage blob accepted")
	}
}

// TestAddInvertedIndexToLoadedSegment: an index added to a segment that is
// being served from its blob (paper 3.2, reindex on the fly) is built beside
// the blob, not into it, and travels with the next Marshal.
func TestAddInvertedIndexToLoadedSegment(t *testing.T) {
	blob, err := buildTestSegment(t, IndexConfig{}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), blob...)
	seg, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.AddInvertedIndex("country"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, before) {
		t.Fatal("adding an index wrote to the blob the segment is served from")
	}
	withIndex, err := seg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(withIndex)
	if err != nil {
		t.Fatal(err)
	}
	c := got.Column("country")
	if !c.HasInverted() {
		t.Fatal("added inverted index not in the blob")
	}
	id, _ := c.IndexOf("de")
	if got := c.Inverted(id).ToArray(); !reflect.DeepEqual(got, []uint32{1, 4}) {
		t.Fatalf("postings for de = %v", got)
	}
	if !got.ColumnMeta("country").HasInverted {
		t.Fatal("metadata HasInverted flag not persisted")
	}
}

func assertSegmentsEqual(t *testing.T, want, got *Segment) {
	t.Helper()
	if got.NumDocs() != want.NumDocs() {
		t.Fatalf("NumDocs = %d, want %d", got.NumDocs(), want.NumDocs())
	}
	if got.Name() != want.Name() {
		t.Fatalf("Name = %q, want %q", got.Name(), want.Name())
	}
	for _, f := range want.Schema().Fields {
		wc, gc := want.Column(f.Name), got.Column(f.Name)
		if gc == nil {
			t.Fatalf("column %q missing after round trip", f.Name)
		}
		if gc.Cardinality() != wc.Cardinality() {
			t.Fatalf("column %q cardinality %d, want %d", f.Name, gc.Cardinality(), wc.Cardinality())
		}
		var buf1, buf2 []int
		for doc := 0; doc < want.NumDocs(); doc++ {
			switch {
			case f.Kind == Metric:
				if gc.Double(doc) != wc.Double(doc) {
					t.Fatalf("column %q doc %d metric %v, want %v", f.Name, doc, gc.Double(doc), wc.Double(doc))
				}
			case f.SingleValue:
				if gc.Value(gc.DictID(doc)) != wc.Value(wc.DictID(doc)) {
					t.Fatalf("column %q doc %d value mismatch", f.Name, doc)
				}
			default:
				buf1, buf2 = wc.DictIDsMV(doc, buf1[:0]), gc.DictIDsMV(doc, buf2[:0])
				if len(buf1) != len(buf2) {
					t.Fatalf("column %q doc %d MV count mismatch", f.Name, doc)
				}
				for j := range buf1 {
					if wc.Value(buf1[j]) != gc.Value(buf2[j]) {
						t.Fatalf("column %q doc %d MV value mismatch", f.Name, doc)
					}
				}
			}
		}
	}
}

func TestMutableSegment(t *testing.T) {
	ms, err := NewMutableSegment("events", "events__0__0", testSchema(t), IndexConfig{InvertedColumns: []string{"country"}})
	if err != nil {
		t.Fatal(err)
	}
	rows := []map[string]any{
		{"country": "us", "browser": "chrome", "memberId": 3, "tags": []any{"a"}, "clicks": 10, "revenue": 1.5, "day": 100},
		{"country": "de", "browser": "firefox", "memberId": 1, "tags": []any{"b"}, "clicks": 20, "revenue": 2.5, "day": 101},
		{"country": "us", "browser": "safari", "memberId": 2, "tags": []any{"a", "c"}, "clicks": 30, "revenue": 3.5, "day": 100},
	}
	for _, m := range rows {
		if err := ms.AddMap(m); err != nil {
			t.Fatal(err)
		}
	}
	if ms.NumDocs() != 3 {
		t.Fatalf("NumDocs = %d", ms.NumDocs())
	}
	snap := ms.Snapshot()
	c := snap.Column("country")
	if c.DictSorted() {
		t.Fatal("mutable dict reported sorted")
	}
	// Arrival-order dict ids: us=0, de=1.
	if c.Value(0) != "us" || c.Value(1) != "de" {
		t.Fatalf("arrival order wrong: %v %v", c.Value(0), c.Value(1))
	}
	if !c.HasInverted() {
		t.Fatal("realtime inverted missing")
	}
	id, _ := c.IndexOf("us")
	if got := c.Inverted(id).ToArray(); !reflect.DeepEqual(got, []uint32{0, 2}) {
		t.Fatalf("realtime postings = %v", got)
	}
	// Missing id yields an empty bitmap rather than nil.
	if got := c.Inverted(999); got == nil || !got.IsEmpty() {
		t.Fatal("missing posting should be empty bitmap")
	}
	// Metrics.
	if snap.Column("revenue").Double(1) != 2.5 {
		t.Fatal("metric value wrong")
	}
	if snap.Column("clicks").MinValue().(int64) != 10 || snap.Column("clicks").MaxValue().(int64) != 30 {
		t.Fatal("metric min/max wrong")
	}
	if c.MinValue() != "de" || c.MaxValue() != "us" || snap.Column("day").MaxValue().(int64) != 101 {
		t.Fatal("dictionary min/max wrong")
	}
	// A snapshot does not move: rows added after it are another snapshot's.
	if err := ms.AddMap(map[string]any{"country": "at", "clicks": 5}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.IndexOf("at"); ok || snap.NumDocs() != 3 || c.Cardinality() != 2 || c.MinValue() != "de" {
		t.Fatal("snapshot saw a row appended after it was taken")
	}
	if later := ms.Snapshot(); later.NumDocs() != 4 || later.Column("country").MinValue() != "at" ||
		later.Column("clicks").MinValue().(int64) != 5 {
		t.Fatal("later snapshot missed the appended row")
	}
}

func TestMutableSeal(t *testing.T) {
	ms, err := NewMutableSegment("events", "s1", testSchema(t), IndexConfig{SortColumn: "memberId", InvertedColumns: []string{"country"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		err := ms.AddMap(map[string]any{
			"country": fmt.Sprintf("c%d", i%5), "browser": "chrome",
			"memberId": int64(50 - i), "tags": []any{"t"},
			"clicks": int64(i), "revenue": float64(i), "day": int64(100 + i%3),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	seg, err := ms.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if seg.NumDocs() != 50 {
		t.Fatalf("sealed NumDocs = %d", seg.NumDocs())
	}
	if !seg.Metadata().Realtime {
		t.Fatal("sealed segment not marked realtime")
	}
	if !seg.SortedOn("memberId") {
		t.Fatal("sealed segment not sorted on memberId")
	}
	if !seg.Column("country").HasInverted() {
		t.Fatal("sealed segment lost inverted config")
	}
	// Sum of clicks must be preserved through the seal.
	var sum int64
	for doc := 0; doc < seg.NumDocs(); doc++ {
		sum += seg.Column("clicks").Long(doc)
	}
	if sum != 49*50/2 {
		t.Fatalf("clicks sum after seal = %d", sum)
	}
}

func TestDefaultColumn(t *testing.T) {
	spec := FieldSpec{Name: "newCol", Type: TypeString, Kind: Dimension, SingleValue: true}
	c := NewDefaultColumn(spec, 10)
	if c.NumDocs() != 10 || c.Cardinality() != 1 {
		t.Fatal("default column shape wrong")
	}
	if c.Value(c.DictID(5)) != "null" {
		t.Fatalf("default value = %v", c.Value(0))
	}
	if _, ok := c.IndexOf("null"); !ok {
		t.Fatal("IndexOf default value failed")
	}
	if _, ok := c.IndexOf("other"); ok {
		t.Fatal("IndexOf other value succeeded")
	}
	if s, e := c.DocIDRange(0, 1); s != 0 || e != 10 {
		t.Fatal("default column range wrong")
	}
	// Numeric default column supports metric access.
	mspec := FieldSpec{Name: "m", Type: TypeLong, Kind: Metric, SingleValue: true}
	mc := NewDefaultColumn(mspec, 4)
	if mc.Long(0) != 0 || mc.Double(1) != 0 {
		t.Fatal("metric default wrong")
	}
	lo, hi := c.Range(nil, nil, true, true)
	if lo != 0 || hi != 1 {
		t.Fatal("unbounded range should include default value")
	}
	lo, hi = c.Range("nz", nil, true, true)
	if lo != hi {
		t.Fatal("range above default should be empty")
	}
}

func TestPackedIntsRoundTrip(t *testing.T) {
	for _, width := range []uint8{1, 3, 7, 8, 13, 17, 31, 32} {
		n := 1000
		p := newPackedInts(n, width)
		maxV := uint32(1)<<width - 1
		for i := 0; i < n; i++ {
			p.set(i, uint32(i*2654435761)&maxV)
		}
		for i := 0; i < n; i++ {
			want := uint32(i*2654435761) & maxV
			if got := p.get(i); got != want {
				t.Fatalf("width %d: get(%d) = %d, want %d", width, i, got, want)
			}
		}
	}
}

// Property: dictionary round trip — for any value set, every value maps to
// an id that maps back, and ids are value-ordered.
func TestQuickDictionaryInvariants(t *testing.T) {
	f := func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		// Arrival-order dictionary first, as the write path fills it; the
		// seal's sort then yields the value-ordered one.
		var mu sync.Mutex
		arrival := &dict[int64]{ids: map[int64]uint32{}}
		for _, v := range vals {
			arrival.index(&mu, v)
		}
		sorted, remap := sortDict(arrival.values.view(arrival.values.n))
		d := &sortedDictionary[int64]{sorted}
		for old, id := range remap {
			if sorted[id] != arrival.values.view(arrival.values.n)[old] {
				return false
			}
		}
		for _, v := range vals {
			id, ok := d.IndexOf(v)
			if !ok || d.Value(id) != v {
				return false
			}
		}
		for i := 1; i < d.Len(); i++ {
			if CompareValues(d.Value(i-1), d.Value(i)) >= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: building a segment and reading it back yields the same rows
// (modulo sort permutation when unsorted).
func TestQuickBuildReadBack(t *testing.T) {
	sch, err := NewSchema("q", []FieldSpec{
		{Name: "d", Type: TypeLong, Kind: Dimension, SingleValue: true},
		{Name: "m", Type: TypeLong, Kind: Metric, SingleValue: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	f := func(pairs []struct{ D, M int64 }) bool {
		if len(pairs) == 0 {
			return true
		}
		b, err := NewBuilder("q", "q0", sch, IndexConfig{})
		if err != nil {
			return false
		}
		for _, p := range pairs {
			if err := b.Add(Row{p.D, p.M}); err != nil {
				return false
			}
		}
		seg, err := b.Build()
		if err != nil {
			return false
		}
		d, m := seg.Column("d"), seg.Column("m")
		for i, p := range pairs {
			if d.Value(d.DictID(i)) != p.D || m.Long(i) != p.M {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaEvolutionWithColumn(t *testing.T) {
	sch := testSchema(t)
	ns, err := sch.WithColumn(FieldSpec{Name: "region", Type: TypeString, Kind: Dimension, SingleValue: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ns.Fields) != len(sch.Fields)+1 {
		t.Fatal("column not added")
	}
	if _, ok := ns.Field("region"); !ok {
		t.Fatal("new column not findable")
	}
	if _, err := sch.WithColumn(FieldSpec{Name: "country", Type: TypeString, Kind: Dimension, SingleValue: true}); err == nil {
		t.Fatal("duplicate column accepted")
	}
}

// TestRangeReadsMatchPerDocReads: DictIDRange, LongRange and DoubleRange
// return, for every window of an immutable, a consuming and a default
// column, what DictID, Long and Double return document by document.
func TestRangeReadsMatchPerDocReads(t *testing.T) {
	schema := testSchema(t)
	b, err := NewBuilder("events", "r0", schema, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := NewMutableSegment("events", "r1", schema, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		row := Row{fmt.Sprintf("c%d", i%37), "chrome", int64(i % 11), []string{"a"}, int64(i * 7 % 101), float64(i%13) / 4, int64(100 + i%5)}
		if err := b.Add(row); err != nil {
			t.Fatal(err)
		}
		if err := ms.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	snap := ms.Snapshot()
	cols := map[string]ColumnReader{
		"default dim":    NewDefaultColumn(FieldSpec{Name: "x", Type: TypeString, Kind: Dimension, SingleValue: true}, n),
		"default metric": NewDefaultColumn(FieldSpec{Name: "y", Type: TypeDouble, Kind: Metric, SingleValue: true}, n),
	}
	for _, name := range []string{"country", "memberId", "clicks", "revenue", "day"} {
		cols["immutable "+name] = seg.Column(name)
		cols["consuming "+name] = snap.Column(name)
	}
	for label, col := range cols {
		for _, w := range [][2]int{{0, n}, {0, 1}, {5, 8}, {63, 130}, {n - 1, 1}, {17, 0}} {
			start, size := w[0], w[1]
			if col.HasDictionary() {
				ids := make([]uint32, size)
				col.DictIDRange(start, ids)
				for i, id := range ids {
					if int(id) != col.DictID(start+i) {
						t.Fatalf("%s: DictIDRange(%d)[%d] = %d, DictID = %d", label, start, i, id, col.DictID(start+i))
					}
				}
				continue
			}
			longs, doubles := make([]int64, size), make([]float64, size)
			col.LongRange(start, longs)
			col.DoubleRange(start, doubles)
			for i := range longs {
				if longs[i] != col.Long(start+i) || doubles[i] != col.Double(start+i) {
					t.Fatalf("%s: range read at %d+%d = (%d, %v), per doc (%d, %v)", label, start, i,
						longs[i], doubles[i], col.Long(start+i), col.Double(start+i))
				}
			}
		}
	}
}

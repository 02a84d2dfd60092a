package segment

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// stressSchema's columns are all functions of the document number, so a
// reader can check any prefix of the segment against a closed form.
func stressSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := NewSchema("stress", []FieldSpec{
		{Name: "key", Type: TypeString, Kind: Dimension, SingleValue: true}, // "k" + doc%997
		{Name: "tags", Type: TypeLong, Kind: Dimension},                     // doc%5 and doc%5+10 (one value when doc%3 == 0)
		{Name: "seq", Type: TypeLong, Kind: Metric, SingleValue: true},      // doc
		{Name: "half", Type: TypeDouble, Kind: Metric, SingleValue: true},   // doc / 2
		{Name: "tick", Type: TypeLong, Kind: Time, SingleValue: true},       // doc / 100
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var stressKeys = func() (keys [997]string) {
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	return keys
}()

func stageStressRow(row *TypedRow, doc int) {
	row.Clear(0)
	row.AppendBytes(0, []byte(stressKeys[doc%997]))
	row.Clear(1)
	row.AppendLong(1, int64(doc%5))
	if doc%3 != 0 {
		row.AppendLong(1, int64(doc%5+10))
	}
	row.Clear(2)
	row.AppendLong(2, int64(doc))
	row.Clear(3)
	row.AppendDouble(3, float64(doc)/2)
	row.Clear(4)
	row.AppendLong(4, int64(doc/100))
}

// TestSnapshotBesideWriter is the reader contract under the race detector:
// one writer appends a million rows while readers keep taking snapshots, and
// every snapshot must be a prefix of the segment, whole: a document count
// that never falls, every column as long as it, sums and min/max equal to
// the closed form over [0, count), every dict id below the cardinality and
// resolving to the value the document was given, and postings that hold
// exactly the documents below the count.
func TestSnapshotBesideWriter(t *testing.T) {
	rows := 1_000_000
	if testing.Short() {
		rows = 100_000
	}
	ms, err := NewMutableSegment("stress", "stress__0", stressSchema(t), IndexConfig{InvertedColumns: []string{"tags"}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			last := 0
			for final := false; !final; {
				select {
				case <-done:
					final = true // one more snapshot, of the finished segment
				default:
				}
				snap := ms.Snapshot()
				n := snap.NumDocs()
				if n < last {
					t.Errorf("NumDocs fell from %d to %d", last, n)
					return
				}
				last = n
				if final && n != rows {
					t.Errorf("final snapshot holds %d rows, want %d", n, rows)
				}
				if err := checkStressSnapshot(snap, g); err != nil {
					t.Errorf("snapshot of %d rows: %v", n, err)
					return
				}
				runtime.Gosched()
			}
		}(g)
	}
	row := ms.NewRow()
	for doc := 0; doc < rows; doc++ {
		stageStressRow(row, doc)
		if err := ms.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// checkStressSnapshot verifies one snapshot against the closed forms; which
// picks the part of the check this reader does in full, so that three readers
// together cover every column on every round without each scanning them all.
func checkStressSnapshot(snap *Snapshot, which int) error {
	n := snap.NumDocs()
	key, tags, seq, half, tick := snap.Column("key"), snap.Column("tags"), snap.Column("seq"), snap.Column("half"), snap.Column("tick")
	for _, c := range []ColumnReader{key, tags, seq, half, tick} {
		if c.NumDocs() != n {
			return fmt.Errorf("column %s has %d docs", c.Spec().Name, c.NumDocs())
		}
	}
	if n == 0 {
		return nil
	}
	if lo, hi := seq.MinValue().(int64), seq.MaxValue().(int64); lo != 0 || hi != int64(n-1) {
		return fmt.Errorf("seq min/max = %d/%d, want 0/%d", lo, hi, n-1)
	}
	if hi := half.MaxValue().(float64); hi != float64(n-1)/2 {
		return fmt.Errorf("half max = %v, want %v", hi, float64(n-1)/2)
	}
	if lo, hi := tick.MinValue().(int64), tick.MaxValue().(int64); lo != 0 || hi != int64((n-1)/100) {
		return fmt.Errorf("tick min/max = %d/%d, want 0/%d", lo, hi, (n-1)/100)
	}
	if want := min(n, 997); key.Cardinality() != want || tick.Cardinality() != (n-1)/100+1 {
		return fmt.Errorf("cardinalities key %d tick %d, want %d and %d", key.Cardinality(), tick.Cardinality(), want, (n-1)/100+1)
	}
	const block = 1000
	ids, longs, doubles := make([]uint32, block), make([]int64, block), make([]float64, block)
	switch which {
	case 0: // sums over [0, n) through the range reads
		var sum int64
		var dsum float64
		for start := 0; start < n; start += block {
			m := min(block, n-start)
			seq.LongRange(start, longs[:m])
			half.DoubleRange(start, doubles[:m])
			for i := 0; i < m; i++ {
				sum += longs[i]
				dsum += doubles[i]
			}
		}
		if want := int64(n) * int64(n-1) / 2; sum != want || dsum != float64(want)/2 {
			return fmt.Errorf("sum(seq) = %d, sum(half) = %v, want %d and %v", sum, dsum, want, float64(want)/2)
		}
	case 1: // dict ids and the values they stand for
		strs := key.(*snapColumn).DictStrings()
		for start := 0; start < n; start += block {
			m := min(block, n-start)
			key.DictIDRange(start, ids[:m])
			for i, id := range ids[:m] {
				if int(id) >= len(strs) {
					return fmt.Errorf("doc %d: key id %d, cardinality %d", start+i, id, len(strs))
				}
				if want := stressKeys[(start+i)%997]; strs[id] != want {
					return fmt.Errorf("doc %d: key %q, want %q", start+i, strs[id], want)
				}
			}
		}
		for doc := 0; doc < n; doc += 97 {
			if v := tick.Value(tick.DictID(doc)); v != int64(doc/100) {
				return fmt.Errorf("doc %d: tick %v", doc, v)
			}
		}
	default: // multi-value reads and realtime postings
		var buf []int
		for doc := max(0, n-5000); doc < n; doc++ {
			buf = tags.DictIDsMV(doc, buf[:0])
			want := []int64{int64(doc % 5), int64(doc%5 + 10)}
			if doc%3 == 0 {
				want = want[:1]
			}
			if len(buf) != len(want) {
				return fmt.Errorf("doc %d: %d tags, want %d", doc, len(buf), len(want))
			}
			for j, id := range buf {
				if id >= tags.Cardinality() || tags.Value(id) != want[j] {
					return fmt.Errorf("doc %d: tag %d is id %d of %d", doc, j, id, tags.Cardinality())
				}
			}
		}
		id, ok := tags.IndexOf(int64(2))
		if !ok {
			if n > 2 {
				return fmt.Errorf("tag 2 not in the dictionary of %d rows", n)
			}
			return nil
		}
		// Tag 2 is on the documents with doc%5 == 2.
		bm := tags.Inverted(id)
		if got, want := bm.Cardinality(), (n+2)/5; got != want {
			return fmt.Errorf("posting of tag 2 holds %d docs, want %d", got, want)
		}
		if hi, _ := bm.Maximum(); int(hi) >= n || hi%5 != 2 {
			return fmt.Errorf("posting of tag 2 reaches doc %d of %d", hi, n)
		}
	}
	return nil
}

// TestSealAllocBudget: sealing allocates the columns of the immutable
// segment and little else. The budget is four times the marshalled blob; the
// row-replaying seal this replaced allocated some 400 bytes per row, forty
// times the blob on this schema.
func TestSealAllocBudget(t *testing.T) {
	schema, err := NewSchema("events", []FieldSpec{
		{Name: "category", Type: TypeString, Kind: Dimension, SingleValue: true},
		{Name: "region", Type: TypeString, Kind: Dimension, SingleValue: true},
		{Name: "value", Type: TypeDouble, Kind: Metric, SingleValue: true},
		{Name: "ts", Type: TypeLong, Kind: Time, SingleValue: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := NewMutableSegment("events", "events__0", schema, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 20000
	for i := 0; i < rows; i++ {
		row := Row{fmt.Sprintf("cat%d", i*7%20), fmt.Sprintf("region%d", i*3%8), float64(i%8000) / 8, int64(10000 + i/100)}
		if err := ms.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	var seg *Segment
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	seg, err = ms.Seal()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := seg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Seal of %d rows allocated %d bytes (%.1f a row); the blob is %d", rows, got, float64(got)/rows, len(blob))
	if got > 4*uint64(len(blob)) {
		t.Fatalf("Seal allocated %d bytes, more than 4x the %d-byte blob", got, len(blob))
	}
}

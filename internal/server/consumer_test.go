package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pinot/internal/segment"
	"pinot/internal/table"
	"pinot/internal/transport"
)

// TestSkippedEventsAreCounted: an event the consumer cannot index is skipped
// but counted by reason, and still counts as a consumed row (the end criteria
// are offsets, which every replica must agree on).
func TestSkippedEventsAreCounted(t *testing.T) {
	r := newRigWith(t, Config{}, func(tc *table.Config) {
		tc.StarTree = nil
		tc.DerivedColumns = []table.DerivedColumn{{Name: "bucket", Expr: "timeBucket(day, clicks)", Type: segment.TypeLong}}
	})
	for _, msg := range []string{
		`{"country":"us","memberId":1,"clicks":`,                     // malformed
		`{"country":"us","memberId":"one","clicks":5,"day":100}`,     // memberId is a LONG column
		`{"country":"us","memberId":1,"clicks":0,"day":100}`,         // timeBucket of width 0 fails
		`{"country":"us","memberId":1,"clicks":5,"day":100} trailer`, // good: bytes after the object are ignored
	} {
		r.topic.ProduceTo(0, nil, []byte(msg))
	}
	waitFor(t, "four events consumed", func() bool { return r.reg.Total("pinot_consumer_rows_consumed_total") == 4 })
	for reason, want := range map[string]int64{skipDecode: 1, skipSchema: 1, skipTransform: 1} {
		if got := r.reg.Value("pinot_consumer_events_skipped_total", "server1", r.resource, reason); got != want {
			t.Errorf("skipped{reason=%s} = %d, want %d", reason, got, want)
		}
	}
	if n, err := r.count(context.Background()); err != nil || n != 1 {
		t.Fatalf("count(*) = %d, %v; want the one good event", n, err)
	}
}

// TestQueriesBesideConsumer is the reader contract at the server: a consumer
// ingests a million events into one consuming segment while clients query it.
// Event i carries clicks = i, so whatever count(*) a response reports, its
// sum(clicks) and max(clicks) must be those of exactly the first count
// events — a query reads one snapshot, never a torn boundary — and counts
// never fall. It runs under the race detector in CI.
func TestQueriesBesideConsumer(t *testing.T) {
	events := 1_000_000
	if testing.Short() {
		events = 50_000
	}
	r := newRigWith(t, Config{}, func(tc *table.Config) {
		tc.StarTree = nil
		tc.FlushThresholdRows = 2 * events
	})
	consumed := func() int64 { return r.reg.Total("pinot_consumer_rows_consumed_total") }
	ctx, stop := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, pql := range []string{
		"SELECT count(*), sum(clicks), max(clicks) FROM events",                    // scanned
		"SELECT count(*), max(clicks), min(clicks) FROM events",                    // answered from the published min/max
		"SELECT count(*), sum(clicks) FROM events WHERE day >= 100",                // through the dictionary and a filter
		"SELECT count(*) FROM events WHERE country = 'c3' GROUP BY memberId TOP 5", // dict ids as group keys
	} {
		wg.Add(1)
		go func(pql string) {
			defer wg.Done()
			var last int64
			for ctx.Err() == nil {
				resp, err := execute(context.Background(), r.srv, &transport.QueryRequest{Resource: r.resource, Query: mustQuery(pql)})
				if err != nil || len(resp.Exceptions) > 0 {
					t.Errorf("%s beside the consumer: %v %v", pql, err, resp)
					return
				}
				g := resp.Result.Groups
				if strings.Contains(pql, "GROUP BY") || g.Len() == 0 {
					continue
				}
				n := g.State(0, 0).Count
				if n < last {
					t.Errorf("%s: count(*) fell from %d to %d", pql, last, n)
					return
				}
				last = n
				if n == 0 {
					continue
				}
				for a := 1; a < 3 && a < len(strings.Split(pql, ",")); a++ {
					s := g.State(0, a)
					switch got, want := s, float64(n)*float64(n-1)/2; s.Func {
					case "SUM":
						if got.Sum != want {
							t.Errorf("%s: sum(clicks) = %v over %d events, want %v", pql, got.Sum, n, want)
							return
						}
					case "MAX":
						if got.Max != float64(n-1) {
							t.Errorf("%s: max(clicks) = %v over %d events, want %d", pql, got.Max, n, n-1)
							return
						}
					case "MIN":
						if got.Min != 0 {
							t.Errorf("%s: min(clicks) = %v", pql, got.Min)
							return
						}
					}
				}
			}
		}(pql)
	}
	msg := make([]byte, 0, 96)
	for i := 0; i < events && !t.Failed(); i++ {
		msg = append(msg[:0], `{"country":"c`...)
		msg = strconv.AppendInt(msg, int64(i%7), 10)
		msg = append(msg, `","memberId":`...)
		msg = strconv.AppendInt(msg, int64(i%50), 10)
		msg = append(msg, `,"clicks":`...)
		msg = strconv.AppendInt(msg, int64(i), 10)
		msg = append(msg, `,"day":`...)
		msg = strconv.AppendInt(msg, int64(100+i/10000), 10)
		msg = append(msg, '}')
		r.topic.ProduceTo(0, nil, msg)
		if i%4096 == 4095 {
			// Keep the log short: wait for the consumer, drop what it has read.
			waitFor(t, "consumer to keep up", func() bool { return int64(i)-consumed() < 32768 || t.Failed() })
			r.topic.TrimBefore(consumed())
		}
	}
	waitFor(t, "every event consumed", func() bool { return consumed() == int64(events) || t.Failed() })
	stop()
	wg.Wait()
	if n, err := r.count(context.Background()); err != nil || n != int64(events) {
		t.Fatalf("count(*) = %d, %v; want %d", n, err, events)
	}
}

// eventsSchema is the benchmark's hybrid_ingest table.
func eventsSchema(t testing.TB) *segment.Schema {
	t.Helper()
	s, err := segment.NewSchema("events", []segment.FieldSpec{
		{Name: "category", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "region", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "value", Type: segment.TypeDouble, Kind: segment.Metric, SingleValue: true},
		{Name: "ts", Type: segment.TypeLong, Kind: segment.Time, SingleValue: true, TimeUnit: "SECONDS"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// bareConsumer is a consumer's indexing half — segment, staging row,
// decoder — without a server around it.
func bareConsumer(t testing.TB, schema *segment.Schema) *consumer {
	t.Helper()
	ms, err := segment.NewMutableSegment(schema.Name, schema.Name+"__0", schema, segment.IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	row := ms.NewRow()
	return &consumer{seg: ms, row: row, dec: newEventDecoder(schema, row)}
}

// TestIngestAllocBudget: indexing an event allocates what the event adds to
// the columns — a few bytes of ids and metrics, now and then a dictionary
// entry or a chunk — and nothing per value. The budget is 200 bytes an event
// in steady state; decoding through encoding/json into a map and a boxed row
// cost about 1600.
func TestIngestAllocBudget(t *testing.T) {
	c := bareConsumer(t, eventsSchema(t))
	const warm, measured = 5000, 20000
	msgs := make([][]byte, warm+measured)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf(`{"category":"cat%d","region":"region%d","value":%v,"ts":%d}`,
			i*7%20, i*3%8, float64(i%8000)/8, 10000+i/100))
	}
	index := func(msgs [][]byte) {
		for _, m := range msgs {
			if reason, err := c.indexMessage(m); reason != "" {
				t.Fatalf("event %s skipped: %s: %v", m, reason, err)
			}
		}
	}
	index(msgs[:warm])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	index(msgs[warm:])
	runtime.ReadMemStats(&after)
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / measured
	t.Logf("%.1f bytes allocated per event", perEvent)
	if perEvent > 200 {
		t.Fatalf("indexing allocates %.1f bytes per event, budget 200", perEvent)
	}
	if got := c.seg.NumDocs(); got != warm+measured {
		t.Fatalf("segment holds %d rows, want %d", got, warm+measured)
	}
}

// decodeSchema has a field of every type and shape an event can carry, two
// of them under names that only match after unescaping.
func decodeSchema(t testing.TB) *segment.Schema {
	t.Helper()
	s, err := segment.NewSchema("decode", []segment.FieldSpec{
		{Name: "s", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "i", Type: segment.TypeInt, Kind: segment.Dimension, SingleValue: true},
		{Name: "l", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
		{Name: "f", Type: segment.TypeFloat, Kind: segment.Dimension, SingleValue: true},
		{Name: "d", Type: segment.TypeDouble, Kind: segment.Dimension, SingleValue: true},
		{Name: "b", Type: segment.TypeBoolean, Kind: segment.Dimension, SingleValue: true},
		{Name: "ms", Type: segment.TypeString, Kind: segment.Dimension},
		{Name: "ml", Type: segment.TypeLong, Kind: segment.Dimension},
		{Name: "md", Type: segment.TypeDouble, Kind: segment.Dimension},
		{Name: "mb", Type: segment.TypeBoolean, Kind: segment.Dimension},
		{Name: "xl", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
		{Name: "xd", Type: segment.TypeDouble, Kind: segment.Metric, SingleValue: true},
		{Name: "naïve", Type: segment.TypeString, Kind: segment.Dimension, SingleValue: true},
		{Name: "q\"t\ufffd", Type: segment.TypeLong, Kind: segment.Dimension, SingleValue: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// referenceDecode is the decode the consumer used before eventDecoder, kept
// as the oracle: a generic encoding/json decode of the first value into a
// map of json.Numbers, canonicalized field by field.
func referenceDecode(schema *segment.Schema, msg []byte) (segment.Row, error) {
	dec := json.NewDecoder(bytes.NewReader(msg))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	return schema.RowFromMap(m)
}

// checkDecodeEvent holds eventDecoder to the reference on one message: the
// same verdict, the same row, and allocation linear in the message.
func checkDecodeEvent(t *testing.T, c *consumer, schema *segment.Schema, msg []byte) {
	t.Helper()
	want, wantErr := referenceDecode(schema, msg)
	var err error
	if got, limit := allocatedBy(func() { err = c.dec.decode(msg) }), uint64(64*len(msg)+4096); got > limit {
		t.Fatalf("decoding %d bytes allocated %d, limit %d", len(msg), got, limit)
	}
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%q: decode error %v, reference error %v", msg, err, wantErr)
	}
	if err != nil {
		return
	}
	for i, f := range schema.Fields {
		got := c.row.Value(i)
		if rv := reflect.ValueOf(got); rv.Kind() == reflect.Slice && rv.Len() == 0 && reflect.ValueOf(want[i]).Len() == 0 {
			continue // an empty array: nil here, empty there
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("%q: field %s = %#v, reference %#v", msg, f.Name, got, want[i])
		}
	}
}

func allocatedBy(fn func()) uint64 {
	best := ^uint64(0)
	var before, after runtime.MemStats
	for try := 0; try < 3; try++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// decodeEventCases are the seeds of FuzzDecodeEvent and the table of
// TestDecodeEventMatchesReference: every way an event has been seen to differ
// from the plain case.
var decodeEventCases = []string{
	`{"s":"x","i":1,"l":-2,"f":1.5,"d":-2.25e3,"b":true,"ms":["a","b"],"ml":[1,2,3],"md":[0.5],"mb":[true,false],"xl":7,"xd":7.5}`,
	`{}`, ` { } `, `null`, ` null`, `nullx`, `null {"s":1}`, `nul`, `nulL`, ``, `   `, `[]`, `"s"`, `12`, `true`, `{`, `{"s"`, `{"s":`, `{"s":"x"`, `{"s":"x",}`, `{,}`, `{"s" "x"}`,
	`{"s":"x"} trailing`, `{"s":"x"}{"s":"y"}`, `{"s":"x"}]`, "\ufeff{}",
	`{"s":"a","s":"b"}`, `{"l":"bad","l":5}`, `{"l":5,"l":"bad"}`, `{"ms":["a"],"ms":[]}`, `{"ms":[1],"ms":"ok"}`,
	`{"s":"tab\there \"quoted\" back\\slash \/ \b\f\n\r"}`, `{"s":"\u00e9\u4e16\ud83d\ude00"}`, `{"s":"\ud83d"}`, `{"s":"\ud83dx"}`, `{"s":"\ud83d\u0041"}`, `{"s":"\ude00\ud83d"}`,
	`{"s":"\uD83D\uDE00"}`, `{"s":"\u12"}`, `{"s":"\u12G4"}`, `{"s":"\x"}`, `{"s":"\'"}`, "{\"s\":\"raw\ttab\"}", "{\"s\":\"nul\x00\"}", "{\"s\":\"\xff\xfe bad utf8 \xc3\"}", "{\"s\":\"\xe4\xb8\x96 ok \xed\xa0\x80\"}",
	`{"na\u00efve":"escaped key"}`, `{"naïve":"plain key"}`, "{\"na\xefve\":\"latin1 key\"}", `{"q\"t\ufffd":5}`, "{\"q\\\"t\xff\":6}",
	`{"l":1.0}`, `{"l":1e3}`, `{"l":1E3}`, `{"l":-0}`, `{"l":9223372036854775807}`, `{"l":9223372036854775808}`, `{"l":-9223372036854775808}`, `{"l":-9223372036854775809}`, `{"l":01}`, `{"l":-}`, `{"l":+1}`, `{"l":1.}`, `{"l":.5}`, `{"l":1e}`, `{"l":1e+}`, `{"l":0x10}`,
	`{"i":3000000000}`, `{"d":1}`, `{"d":-0}`, `{"d":-0.0}`, `{"d":1e308}`, `{"d":1e309}`, `{"d":-1e309}`, `{"d":1e-400}`, `{"d":0.1e1}`, `{"d":123456789012345678901234567890123456789}`, `{"f":1.0000000000000000000000000000000000001}`, `{"d":NaN}`, `{"d":Infinity}`,
	`{"xl":1.5}`, `{"xl":"1"}`, `{"xd":"1"}`, `{"xd":2}`, `{"xl":null}`, `{"s":null}`, `{"ms":null}`, `{"b":1}`, `{"b":"true"}`, `{"b":false}`, `{"b":tru}`, `{"b":TRUE}`,
	`{"ms":"bare"}`, `{"ml":5}`, `{"md":5}`, `{"mb":true}`, `{"ml":"bare"}`, `{"ms":[]}`, `{"ms":[ ]}`, `{"ms":[,]}`, `{"ms":["a",]}`, `{"ms":["a" "b"]}`, `{"ms":["a",1]}`, `{"ms":[["a"]]}`, `{"ms":[{"a":1}]}`, `{"ms":[null]}`, `{"ml":[1,2.5]}`, `{"ml":[1,"2"]}`, `{"md":[1,2.5,-3e2]}`, `{"mb":[true,1]}`, `{"ms":["a"`, `{"ms":[`,
	`{"s":["a"]}`, `{"s":{"a":1}}`, `{"l":[1]}`, `{"l":{}}`,
	`{"unknown":1,"other":{"deep":[1,{"x":[null,true,"s",1.5e-3]}],"e":{}},"s":"kept"}`, `{"unknown":{"a":}}`, `{"unknown":[1,}`, `{"unknown":{"a":1,}}`, `{"unknown":{1:2}}`, `{"unknown":[1 2]}`, `{"unknown":tru}`, `{"unknown":"\u12"}`, `{"unknown":-}`,
	`{"s":"x","unknown":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}`,
	`{"s":"x","unknown":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"s":"x","unknown":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"ms":[` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `]}`,
	`{"ms":[` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `]}`,
	`{"s":` + strings.Repeat(`{"a":`, 9999) + `1` + strings.Repeat("}", 9999) + `}`,
	`{"s":` + strings.Repeat(`{"a":`, 10000) + `1` + strings.Repeat("}", 10000) + `}`,
	" \t\r\n{ \"s\" \t:\r\n \"x\" , \"l\" : 5 }\n",
	`{"l":5 ,"d" : 1.5e+2, "ms" : [ "a" , "b" ] , "mb":[ ]}`,
	`{"s":"` + strings.Repeat("long ", 200) + `","d":` + strings.Repeat("1", 60) + `.5}`,
}

// TestDecodeEventMatchesReference runs the fuzz target's check over its seed
// table on every ordinary test run.
func TestDecodeEventMatchesReference(t *testing.T) {
	schema := decodeSchema(t)
	c := bareConsumer(t, schema)
	for _, msg := range decodeEventCases {
		checkDecodeEvent(t, c, schema, []byte(msg))
	}
}

// FuzzDecodeEvent is the differential between eventDecoder and the
// encoding/json decode it replaced (referenceDecode), over any bytes: the same
// accept/reject verdict, an equal row, no panic, allocation linear in the
// input.
func FuzzDecodeEvent(f *testing.F) {
	for _, msg := range decodeEventCases {
		f.Add([]byte(msg))
	}
	schema := decodeSchema(f)
	c := bareConsumer(f, schema)
	f.Fuzz(func(t *testing.T, msg []byte) { checkDecodeEvent(t, c, schema, msg) })
}

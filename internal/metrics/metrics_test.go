package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	qs := r.Counter("pinot_broker_queries_total", "Queries per table.", "table")
	qs.With("events").Add(3)
	qs.With("events").Inc()
	qs.With("profiles").Inc()
	if got := r.Value("pinot_broker_queries_total", "events"); got != 4 {
		t.Fatalf("events counter = %d, want 4", got)
	}
	if got := r.Total("pinot_broker_queries_total"); got != 5 {
		t.Fatalf("family total = %d, want 5", got)
	}
	if got := r.Value("pinot_broker_queries_total", "absent"); got != 0 {
		t.Fatalf("absent child = %d, want 0", got)
	}
	if got := r.Value("no_such_family"); got != 0 {
		t.Fatalf("absent family = %d, want 0", got)
	}

	g := r.Gauge("pinot_tenancy_queue_depth", "Waiting queries.", "tenant")
	g.With("gold").Set(7)
	g.With("gold").Dec()
	if got := r.Value("pinot_tenancy_queue_depth", "gold"); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
}

func TestRegistryIdempotentAndConflicts(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", "l")
	b := r.Counter("x_total", "", "l")
	if a != b {
		t.Fatal("re-registration returned a different family")
	}
	mustPanic(t, func() { r.Gauge("x_total", "", "l") })
	mustPanic(t, func() { r.Counter("x_total", "", "other") })
	mustPanic(t, func() { a.With("v1", "v2") })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestRegistryConcurrentWith(t *testing.T) {
	r := NewRegistry()
	f := r.Counter("concurrent_total", "", "k")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				f.With("shared").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Value("concurrent_total", "shared"); got != 8000 {
		t.Fatalf("concurrent increments = %d, want 8000", got)
	}
}

func TestWriteTextAndParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("pinot_broker_queries_total", "Queries per table.", "table").With("ev\"il\\t").Add(12)
	r.Gauge("pinot_up", "Liveness.").With().Set(1)
	hist := r.Histogram("pinot_broker_latency_us", "Latency.", "table").With("events")
	for i := 1; i <= 100; i++ {
		hist.Observe(float64(i))
	}

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE pinot_broker_queries_total counter",
		"# TYPE pinot_up gauge",
		"# TYPE pinot_broker_latency_us summary",
		"pinot_broker_latency_us_count{table=\"events\"} 100",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, text)
		}
	}

	samples, err := ParseText(text)
	if err != nil {
		t.Fatalf("ParseText rejected our own exposition: %v\n%s", err, text)
	}
	byName := SumBy(samples, "pinot_broker_queries_total", "table")
	if byName[`ev"il\t`] != 12 {
		t.Fatalf("escaped label did not round-trip: %v", byName)
	}
	found := false
	for _, s := range samples {
		if s.Name == "pinot_broker_latency_us" && s.Labels["quantile"] == "0.5" {
			found = true
			if s.Value < 45 || s.Value > 55 {
				t.Fatalf("median of 1..100 exported as %v", s.Value)
			}
		}
	}
	if !found {
		t.Fatal("no quantile=0.5 sample for histogram")
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_value",
		"1leading_digit 3",
		`unterminated{a="b 3`,
		`bad_label{9x="y"} 3`,
		"name 3 extra",
		"name notanumber",
	} {
		if _, err := ParseText(bad); err == nil {
			t.Fatalf("ParseText accepted %q", bad)
		}
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "help", "l").With("v").Add(2)
	r.Histogram("h_us", "").With().Observe(10)
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot families = %d, want 2", len(snap))
	}
	if snap[0].Name != "c_total" || snap[0].Samples[0].Value != 2 {
		t.Fatalf("counter snapshot wrong: %+v", snap[0])
	}
	hs := snap[1]
	if hs.Kind != "histogram" || hs.Samples[0].Count != 1 || hs.Samples[0].Quantiles["0.5"] == 0 {
		t.Fatalf("histogram snapshot wrong: %+v", hs)
	}
}

func TestSlowLog(t *testing.T) {
	l := NewSlowLog(3)
	for _, lat := range []int64{50, 10, 90, 30, 70} {
		l.Record(SlowQuery{QueryID: "q", LatencyUs: lat})
	}
	got := l.Slowest()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	want := []int64{90, 70, 50}
	for i, e := range got {
		if e.LatencyUs != want[i] {
			t.Fatalf("entry %d latency = %d, want %d (descending order)", i, e.LatencyUs, want[i])
		}
	}
	// A query slower than the floor displaces the floor.
	l.Record(SlowQuery{LatencyUs: 60})
	got = l.Slowest()
	if got[2].LatencyUs != 60 {
		t.Fatalf("floor not displaced: %+v", got)
	}
	// A query not slower than the floor is dropped.
	l.Record(SlowQuery{LatencyUs: 5})
	if l.Len() != 3 || l.Slowest()[2].LatencyUs != 60 {
		t.Fatalf("fast query displaced the floor: %+v", l.Slowest())
	}
}

func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Record(SlowQuery{LatencyUs: int64(g*500 + i)})
			}
		}(g)
	}
	wg.Wait()
	got := l.Slowest()
	if len(got) != 8 {
		t.Fatalf("len = %d, want 8", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].LatencyUs > got[i-1].LatencyUs {
			t.Fatalf("not descending at %d: %+v", i, got)
		}
	}
	if got[0].LatencyUs != 1999 {
		t.Fatalf("slowest = %d, want 1999", got[0].LatencyUs)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total", "").With()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkFamilyWithLookup(b *testing.B) {
	r := NewRegistry()
	f := r.Counter("bench_total", "", "table")
	f.With("events")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			f.With("events").Inc()
		}
	})
}

package query

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pinot/internal/pql"
	"pinot/internal/segment"
)

// hookSegment calls hook each time a segment plan asks it for a column, on
// the goroutine that runs the plan.
type hookSegment struct {
	segment.Reader
	hook func()
}

func (s *hookSegment) Column(name string) segment.ColumnReader {
	s.hook()
	return s.Reader.Column(name)
}

func hookedSegments(t *testing.T, n int, hook func()) []IndexedSegment {
	t.Helper()
	segs := make([]IndexedSegment, n)
	for i := range segs {
		seg := buildRows(t, testRows(300, int64(i+1)), segment.IndexConfig{}, fmt.Sprintf("s%d", i))
		segs[i] = IndexedSegment{Seg: &hookSegment{Reader: seg, hook: hook}}
	}
	return segs
}

// TestExecuteStartsNoGoroutine: a query's segments run on the goroutine that
// calls Execute and on helpers that outlive it, so the goroutine count while a
// segment executes is the count between queries, whatever the parallelism.
func TestExecuteStartsNoGoroutine(t *testing.T) {
	var most atomic.Int64
	segs := hookedSegments(t, 8, func() {
		n := int64(runtime.NumGoroutine())
		for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
		}
	})
	q, err := pql.Parse("SELECT sum(clicks), count(*) FROM events WHERE browser <> 'lynx' GROUP BY country")
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 0} {
		eng := &Engine{parallelism: par}
		if _, _, err := eng.Execute(context.Background(), q, segs, nil); err != nil { // starts the helpers
			t.Fatal(err)
		}
		between := int64(runtime.NumGoroutine())
		most.Store(0)
		if _, _, err := eng.Execute(context.Background(), q, segs, nil); err != nil {
			t.Fatal(err)
		}
		if got := most.Load(); got != between {
			t.Errorf("parallelism %d: %d goroutines while segments ran, %d between queries", par, got, between)
		}
	}
}

// TestExecuteIsDeterministicAcrossHelpers: the encoded result and its Stats
// do not depend on how many goroutines ran the segments, nor on whether any
// helper was free to join.
func TestExecuteIsDeterministicAcrossHelpers(t *testing.T) {
	segs := hookedSegments(t, 12, func() {})
	queries := []string{
		"SELECT sum(revenue), count(*) FROM events WHERE memberId < 40",
		"SELECT sum(revenue), max(clicks) FROM events GROUP BY country, browser TOP 50",
		"SELECT country, revenue FROM events WHERE clicks > 90 LIMIT 1000",
	}
	run := func(par int, text string) ([]byte, Stats) {
		t.Helper()
		q, err := pql.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		res, excs, err := (&Engine{parallelism: par}).Execute(context.Background(), q, segs, nil)
		if err != nil || len(excs) > 0 {
			t.Fatalf("%s: %v %v", text, err, excs)
		}
		b, err := EncodeIntermediate(res)
		if err != nil {
			t.Fatal(err)
		}
		return b, res.Stats
	}
	type answer struct {
		bytes []byte
		stats Stats
	}
	want := make([]answer, len(queries))
	for i, text := range queries {
		want[i].bytes, want[i].stats = run(1, text)
	}
	check := func(label string, par int) {
		t.Helper()
		for i, text := range queries {
			b, stats := run(par, text)
			if !bytes.Equal(b, want[i].bytes) || stats != want[i].stats {
				t.Errorf("%s, parallelism %d: %s differs from the caller-only run", label, par, text)
			}
		}
	}
	for par := 2; par <= 4; par++ {
		check("helpers idle", par)
	}

	// Hold every helper inside a blocked query: a probe nobody takes within
	// 50 ms means no helper is idle; one that is taken calls for one more
	// blocked query.
	release := make(chan struct{})
	var entered atomic.Int64
	blocked := hookedSegments(t, 64, func() {
		entered.Add(1)
		<-release
	})
	q, err := pql.Parse("SELECT count(*) FROM events WHERE browser <> 'lynx'")
	if err != nil {
		t.Fatal(err)
	}
	var blockers sync.WaitGroup
	defer func() {
		close(release)
		blockers.Wait()
	}()
	for n := 1; ; n++ {
		if n > 64 {
			t.Fatal("helpers stayed idle beside 64 blocked queries")
		}
		blockers.Add(1)
		go func() {
			defer blockers.Done()
			if _, _, err := (&Engine{}).Execute(context.Background(), q, blocked, nil); err != nil {
				t.Error(err)
			}
		}()
		for entered.Load() < int64(n) {
			runtime.Gosched()
		}
		if !helperTakes(50 * time.Millisecond) {
			break
		}
	}
	check("helpers busy", 0)
	check("helpers busy", 4)
}

// helperTakes reports whether an idle helper takes an empty execution within d.
func helperTakes(d time.Duration) bool {
	probe := &execution{ctx: context.Background()}
	for end := time.Now().Add(d); time.Now().Before(end); runtime.Gosched() {
		probe.wg.Add(1)
		select {
		case helpers() <- probe:
			probe.wg.Wait()
			return true
		default:
			probe.wg.Done()
		}
	}
	return false
}

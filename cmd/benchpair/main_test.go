package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAAOnHeadSmoke pairs HEAD with the working tree on tiny data and checks
// the row -append writes: one row naming both sides, every end-to-end metric
// of BENCHMARK.json summarized with its quartiles and wins, nothing failed.
func TestAAOnHeadSmoke(t *testing.T) {
	rev, err := git("", "rev-parse", "HEAD")
	if err != nil {
		t.Skipf("not in a git checkout: %v", err)
	}
	path := filepath.Join(t.TempDir(), "trajectory.json")
	var out bytes.Buffer
	args := []string{"-base", "HEAD", "-n", "2", "-workload", "lookup_fanout", "-smoke", "-append", "-trajectory", path}
	if err := run(args, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "| cpu_ms_per_query (ms) |") {
		t.Fatalf("no cpu_ms_per_query line in the table:\n%s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Base != rev || rows[0].Head == "" || rows[0].Pairs != 2 || !rows[0].Smoke {
		t.Fatalf("want one smoke row of 2 pairs against %s, got %s", rev, data)
	}
	w := rows[0].Workloads["lookup_fanout"]
	if w == nil || w.Failed != (Sides[int]{}) || w.Incorrect != (Sides[int]{}) {
		t.Fatalf("lookup_fanout: want a row with nothing failed, got %s", data)
	}
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		t.Fatal(err)
	}
	better, _, err := readBenchmark(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"setup_s", "query_p50_ms", "query_p99_ms", "throughput_qps", "cpu_ms_per_query",
		"alloc_kb_per_query", "live_heap_mb", "stored_bytes_per_row"} {
		m := w.Metrics[name]
		if m == nil || m.Better != better[name] || m.Wins == nil || *m.Wins < 0 || *m.Wins > 2 {
			t.Fatalf("%s: want a summary with a direction and wins in [0, 2], got %+v", name, m)
		}
		for _, q := range []Quartile{m.Stats.Base, m.Stats.Head} {
			if !(q.Q1 <= q.Median && q.Median <= q.Q3) || q.Median <= 0 && name != "setup_s" {
				t.Fatalf("%s: quartiles %+v", name, q)
			}
		}
	}
}

func TestQuartiles(t *testing.T) {
	if q := quartiles([]float64{4, 1, 3, 2, 5}); q != (Quartile{Q1: 2, Median: 3, Q3: 4}) {
		t.Fatalf("quartiles = %+v", q)
	}
	if q := quartiles([]float64{1, 2}); q != (Quartile{Q1: 1.25, Median: 1.5, Q3: 1.75}) {
		t.Fatalf("quartiles = %+v", q)
	}
}

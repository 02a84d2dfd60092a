package main

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	spec, err := readBenchmark(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"setup_s", "query_p50_ms", "query_p99_ms", "throughput_qps", "cpu_ms_per_query",
		"alloc_kb_per_query", "live_heap_mb", "stored_bytes_per_row"} {
		m := w.Metrics[name]
		if m == nil || m.Better != spec.better[name] || m.Wins == nil || *m.Wins < 0 || *m.Wins > 2 {
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

// runsOf builds the pairs of one metric from its base and head values.
func runsOf(t *testing.T, metric string, base, head []float64) [2][]runLine {
	t.Helper()
	var runs [2][]runLine
	for side, values := range [2][]float64{base, head} {
		for _, v := range values {
			var line runLine
			js := fmt.Sprintf(`{"correct": true, "metrics": {%q: {"value": %g, "unit": "u"}}}`, metric, v)
			if err := json.Unmarshal([]byte(js), &line); err != nil {
				t.Fatal(err)
			}
			runs[side] = append(runs[side], line)
		}
	}
	return runs
}

// TestVerdicts feeds synthetic pairs for each outcome: a win and a loss need
// 9 of 10 pairs and a median gap wider than the base quartiles; anything
// short of either is unresolved; and a head median worse than the bound is
// flagged whatever the verdict.
func TestVerdicts(t *testing.T) {
	spec := &benchmark{
		better: map[string]string{"cpu_ms_per_query": "lower", "throughput_qps": "higher"},
		bound:  map[string]float64{"cpu_ms_per_query": 0.25, "throughput_qps": 0.25},
	}
	base := []float64{10, 10.2, 9.8, 10.1, 9.9, 10, 10.3, 9.7, 10.1, 9.9}
	shift := func(xs []float64, f func(i int, x float64) float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = f(i, x)
		}
		return out
	}
	for _, c := range []struct {
		name, metric string
		head         []float64
		verdict      string
		outside      bool
	}{
		{"faster in every pair", "cpu_ms_per_query", shift(base, func(_ int, x float64) float64 { return x - 2 }), "win", false},
		{"higher throughput in every pair", "throughput_qps", shift(base, func(_ int, x float64) float64 { return x + 2 }), "win", false},
		{"slower in every pair, inside the bound", "cpu_ms_per_query", shift(base, func(_ int, x float64) float64 { return x + 1 }), "loss", false},
		{"slower in every pair, past the bound", "cpu_ms_per_query", shift(base, func(_ int, x float64) float64 { return x * 1.4 }), "loss", true},
		{"faster in 8 pairs of 10", "cpu_ms_per_query", shift(base, func(i int, x float64) float64 {
			if i < 2 {
				return x + 1
			}
			return x - 2
		}), "unresolved", false},
		{"faster in every pair by less than the quartiles", "cpu_ms_per_query", shift(base, func(_ int, x float64) float64 { return x - 0.05 }), "unresolved", false},
		{"split pairs, median past the bound", "cpu_ms_per_query", shift(base, func(i int, x float64) float64 {
			if i < 4 {
				return x - 1
			}
			return 14
		}), "unresolved", true},
		{"identical runs", "cpu_ms_per_query", base, "unresolved", false},
	} {
		m := summarize(runsOf(t, c.metric, base, c.head), spec).Metrics[c.metric]
		if m.Verdict != c.verdict || m.OutsideBound != c.outside {
			t.Errorf("%s: verdict %q, outside bound %v; want %q, %v (wins %d, losses %d, %+v)",
				c.name, m.Verdict, m.OutsideBound, c.verdict, c.outside, *m.Wins, *m.Losses, m.Stats)
		}
	}
}

// TestSameTreeTagsAARows: a row is A/A only while the working tree is the
// base commit. Editing the trajectory keeps it so; an untracked file, an
// edit to a tracked one, or a base other than HEAD does not.
func TestSameTreeTagsAARows(t *testing.T) {
	root := t.TempDir()
	gitIn := func(args ...string) string {
		t.Helper()
		out, err := git(root, append([]string{"-c", "user.name=t", "-c", "user.email=t@t"}, args...)...)
		if err != nil {
			t.Skipf("git unavailable: %v", err)
		}
		return out
	}
	write := func(name, text string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(root, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	gitIn("init", "-q")
	write("main.go", "package main\n")
	write("BENCH_TRAJECTORY.json", "[]\n")
	gitIn("add", "-A")
	gitIn("commit", "-q", "-m", "one")
	first := gitIn("rev-parse", "HEAD")
	check := func(step, rev string, want bool) {
		t.Helper()
		if got, err := sameTree(root, rev); err != nil || got != want {
			t.Fatalf("%s: sameTree = %v, %v; want %v", step, got, err, want)
		}
	}
	check("clean checkout", first, true)
	write("BENCH_TRAJECTORY.json", "[{}]\n")
	check("trajectory appended", first, true)
	write("extra.go", "package main\n")
	check("untracked file", first, false)
	gitIn("add", "-A")
	gitIn("commit", "-q", "-m", "two")
	check("base behind HEAD", first, false)
	check("base is the new HEAD", gitIn("rev-parse", "HEAD"), true)
	write("main.go", "package main // edited\n")
	check("tracked file edited", gitIn("rev-parse", "HEAD"), false)
}

// Command benchpair compares the repository benchmark (./bench) of a git ref
// with the working tree's, in alternated pairs of runs.
//
//	go run ./cmd/benchpair -base HEAD~1 -n 10 -workload scan_groupby
//	go run ./cmd/benchpair -base main -n 5 -trace -append
//
// It exports the ref with git archive into a temporary directory, builds
// ./bench there and in the working tree, and runs the two binaries one after
// the other N times per workload, the side that runs first alternating from
// pair to pair. From each run's last JSON line it prints, for every metric,
// both sides' median and quartiles, the change of the median, in how many
// pairs the working tree did better, in the direction BENCHMARK.json gives the
// metric, and a verdict: "win" or "loss" when one side did better in at least
// 9 pairs of 10 and the medians lie further apart than the base side's
// quartiles, "unresolved" otherwise, and "outside bound" besides when the
// working tree's median of an end-to-end metric is worse than the base's by
// more than its BENCHMARK.json bound. Without -workload it pairs every
// workload BENCHMARK.json lists.
// -append adds the comparison as one row to BENCH_TRAJECTORY.json at the root
// of the repository. When the base ref is HEAD and the working tree is clean
// (the trajectory file aside), both sides build the same source, and the row
// is tagged "aa": its spread is the noise floor the other rows' verdicts sit
// beside.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

// options are the command's flags.
type options struct {
	base, workload, trajectory string
	n, seed                    int
	appendRow, smoke, trace    bool
}

// runLine is the last line of a bench run.
type runLine struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// Row is one comparison, as -append writes it to the trajectory.
type Row struct {
	Date      string                  `json:"date"`
	Head      string                  `json:"head"` // git describe of the working tree
	Base      string                  `json:"base"` // the base ref's commit
	Pairs     int                     `json:"pairs"`
	Seed      int                     `json:"seed"`
	Smoke     bool                    `json:"smoke"`
	Trace     bool                    `json:"trace"`
	AA        bool                    `json:"aa,omitempty"` // base is HEAD and the tree is clean
	Workloads map[string]*WorkloadRow `json:"workloads"`
}

// WorkloadRow is one workload's pairs: operations failed and runs that were
// not correct, per side, and every metric.
type WorkloadRow struct {
	Failed    Sides[int]                `json:"failed"`
	Incorrect Sides[int]                `json:"incorrect"`
	Metrics   map[string]*MetricSummary `json:"metrics"`
}

// Sides holds a base and a head value.
type Sides[T any] struct {
	Base T `json:"base"`
	Head T `json:"head"`
}

// MetricSummary is one metric over the pairs. Wins and Losses count the
// pairs in which head did better and worse than base; they, and the verdict,
// are nil and empty when BENCHMARK.json gives no direction.
type MetricSummary struct {
	Unit         string          `json:"unit"`
	Better       string          `json:"better,omitempty"`
	Stats        Sides[Quartile] `json:"stats"`
	Wins         *int            `json:"wins"`
	Losses       *int            `json:"losses,omitempty"`
	Verdict      string          `json:"verdict,omitempty"`
	OutsideBound bool            `json:"outside_bound,omitempty"`
}

// Quartile is a sample's median and quartiles.
type Quartile struct {
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func run(args []string, out io.Writer) error {
	var o options
	fs := flag.NewFlagSet("benchpair", flag.ContinueOnError)
	fs.StringVar(&o.base, "base", "", "git ref to compare the working tree with (required)")
	fs.IntVar(&o.n, "n", 5, "pairs of runs per workload")
	fs.IntVar(&o.seed, "seed", 1, "seed of bench's row and query generators")
	fs.StringVar(&o.workload, "workload", "", "workload to pair (default: every workload of BENCHMARK.json)")
	fs.BoolVar(&o.appendRow, "append", false, "add the comparison as one row to the trajectory file")
	fs.StringVar(&o.trajectory, "trajectory", "", "trajectory file (default: BENCH_TRAJECTORY.json at the repository root)")
	fs.BoolVar(&o.smoke, "smoke", false, "pass -smoke to bench: tiny data and passes, for the tests")
	fs.BoolVar(&o.trace, "trace", false, "pass -trace 1 to bench: the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.base == "" || o.n < 1 || fs.NArg() > 0 {
		fs.Usage()
		return errors.New("want -base and -n >= 1")
	}
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	baseRev, err := git(root, "rev-parse", "--verify", o.base+"^{commit}")
	if err != nil {
		return err
	}
	head, err := git(root, "describe", "--always", "--dirty")
	if err != nil {
		return err
	}
	aa, err := sameTree(root, baseRev)
	if err != nil {
		return err
	}
	spec, err := readBenchmark(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	workloads := spec.workloads
	if o.workload != "" {
		workloads = []string{o.workload}
	}
	tmp, err := os.MkdirTemp("", "benchpair")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	baseTree := filepath.Join(tmp, "base")
	if err := export(root, baseRev, baseTree); err != nil {
		return err
	}
	bins := [2]string{filepath.Join(tmp, "bench_base"), filepath.Join(tmp, "bench_head")}
	for i, dir := range []string{baseTree, root} {
		if err := command(dir, nil, "go", "build", "-o", bins[i], "./bench"); err != nil {
			return fmt.Errorf("building ./bench in %s: %w", dir, err)
		}
	}
	row := Row{Date: time.Now().UTC().Format(time.RFC3339), Head: head, Base: baseRev, Pairs: o.n, Seed: o.seed,
		Smoke: o.smoke, Trace: o.trace, AA: aa, Workloads: map[string]*WorkloadRow{}}
	for _, w := range workloads {
		benchArgs := []string{"-workload", w, "-seed", fmt.Sprint(o.seed)}
		if o.smoke {
			benchArgs = append(benchArgs, "-smoke")
		}
		if o.trace {
			benchArgs = append(benchArgs, "-trace", "1")
		}
		var runs [2][]runLine
		for p := 0; p < o.n; p++ {
			for k := 0; k < 2; k++ {
				side := (p + k) % 2 // base first in even pairs, head first in odd ones
				line, err := benchRun(tmp, bins[side], benchArgs)
				if err != nil {
					return fmt.Errorf("%s, pair %d: %w", w, p+1, err)
				}
				runs[side] = append(runs[side], line)
			}
		}
		row.Workloads[w] = summarize(runs, spec)
	}
	printRow(out, &row)
	if !o.appendRow {
		return nil
	}
	path := o.trajectory
	if path == "" {
		path = filepath.Join(root, "BENCH_TRAJECTORY.json")
	}
	return appendRow(path, &row)
}

// sameTree reports whether the working tree at root is commit rev: HEAD is
// rev and git sees no change, untracked files included, but to the
// trajectory file.
func sameTree(root, rev string) (bool, error) {
	head, err := git(root, "rev-parse", "HEAD")
	if err != nil || head != rev {
		return false, err
	}
	status, err := git(root, "status", "--porcelain", "--", ".", ":(exclude)BENCH_TRAJECTORY.json")
	return status == "", err
}

// git runs git in dir and returns its trimmed output.
func git(dir string, args ...string) (string, error) {
	var stdout bytes.Buffer
	if err := command(dir, &stdout, "git", args...); err != nil {
		return "", err
	}
	return strings.TrimSpace(stdout.String()), nil
}

// command runs name in dir, its output into stdout (nil: discarded); on
// failure the error carries what it wrote to stderr.
func command(dir string, stdout io.Writer, name string, args ...string) error {
	var stderr bytes.Buffer
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, stdout, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %v: %s", name, strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return nil
}

// benchmark is what benchpair reads of BENCHMARK.json: the direction
// ("lower" or "higher") of every metric, the bound of every end-to-end
// metric (the fraction of the base median head may be worse by), and the
// workloads.
type benchmark struct {
	better    map[string]string
	bound     map[string]float64
	workloads []string
}

func readBenchmark(path string) (*benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	type metric struct {
		Name, Better string
		Bound        *float64
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	spec := &benchmark{better: map[string]string{}, bound: map[string]float64{}}
	for _, m := range append(b.EndToEnd, b.PerLayer...) {
		spec.better[m.Name] = m.Better
		if m.Bound != nil {
			spec.bound[m.Name] = *m.Bound
		}
	}
	for _, w := range b.Workloads {
		spec.workloads = append(spec.workloads, w.Name)
	}
	return spec, nil
}

// export writes the tree of commit rev into dir.
func export(root, rev, dir string) error {
	var archive bytes.Buffer
	if err := command(root, &archive, "git", "archive", "--format=tar", rev); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	untar := exec.Command("tar", "-x", "-C", dir)
	untar.Stdin = &archive
	if out, err := untar.CombinedOutput(); err != nil {
		return fmt.Errorf("tar -x: %v: %s", err, out)
	}
	return nil
}

// benchRun runs one bench binary in dir and parses its last line. A run
// whose operations failed exits non-zero but still reports, so only a
// missing or unreadable line is an error.
func benchRun(dir, bin string, args []string) (runLine, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &stdout, &stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line runLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil || line.Metrics == nil {
		return line, fmt.Errorf("%s: no result line (%v, %v): %s", bin, err, runErr, strings.TrimSpace(stderr.String()))
	}
	return line, nil
}

// summarize folds the runs of both sides (runs[0] base, runs[1] head; pair
// i is runs[0][i] beside runs[1][i]) into a workload row.
func summarize(runs [2][]runLine, spec *benchmark) *WorkloadRow {
	w := &WorkloadRow{Metrics: map[string]*MetricSummary{}}
	for p := range runs[0] {
		b, h := runs[0][p], runs[1][p]
		w.Failed.Base += b.Failed
		w.Failed.Head += h.Failed
		w.Incorrect.Base += btoi(!b.Correct)
		w.Incorrect.Head += btoi(!h.Correct)
		for name, bm := range b.Metrics {
			hm, ok := h.Metrics[name]
			if !ok {
				continue
			}
			m := w.Metrics[name]
			if m == nil {
				m = &MetricSummary{Unit: bm.Unit, Better: spec.better[name]}
				if m.Better != "" {
					m.Wins, m.Losses = new(int), new(int)
				}
				w.Metrics[name] = m
			}
			switch {
			case m.Wins == nil:
			case m.Better == "lower" && hm.Value < bm.Value || m.Better == "higher" && hm.Value > bm.Value:
				*m.Wins++
			case m.Better == "lower" && hm.Value > bm.Value || m.Better == "higher" && hm.Value < bm.Value:
				*m.Losses++
			}
		}
	}
	for name, m := range w.Metrics {
		var b, h []float64
		for p := range runs[0] {
			b = append(b, runs[0][p].Metrics[name].Value)
			h = append(h, runs[1][p].Metrics[name].Value)
		}
		m.Stats = Sides[Quartile]{quartiles(b), quartiles(h)}
		if m.Wins != nil {
			m.Verdict = verdict(m, len(runs[0]))
			if bound, ok := spec.bound[name]; ok {
				m.OutsideBound = headWorseBy(m) > bound*math.Abs(m.Stats.Base.Median)
			}
		}
	}
	return w
}

// headWorseBy is how much worse head's median is than base's, in the
// metric's unit and direction (negative when head is better).
func headWorseBy(m *MetricSummary) float64 {
	d := m.Stats.Head.Median - m.Stats.Base.Median
	if m.Better == "higher" {
		return -d
	}
	return d
}

// verdict resolves a metric with a direction over its pairs: "win" or "loss"
// when one side did better in at least 9 pairs of 10 (ties count for
// neither) and the medians differ, that way, by more than the base side's
// interquartile range; "unresolved" otherwise.
func verdict(m *MetricSummary, pairs int) string {
	gap, iqr := headWorseBy(m), m.Stats.Base.Q3-m.Stats.Base.Q1
	switch {
	case *m.Wins*10 >= pairs*9 && -gap > iqr:
		return "win"
	case *m.Losses*10 >= pairs*9 && gap > iqr:
		return "loss"
	}
	return "unresolved"
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// quartiles interpolates linearly between the order statistics.
func quartiles(xs []float64) Quartile {
	s := slices.Clone(xs)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(math.Floor(pos))
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return Quartile{Q1: at(0.25), Median: at(0.5), Q3: at(0.75)}
}

// printRow prints one table per workload.
func printRow(out io.Writer, row *Row) {
	fmt.Fprintf(out, "head %s vs base %s, %d alternated pairs, seed %d\n", row.Head, row.Base, row.Pairs, row.Seed)
	if row.AA {
		fmt.Fprintln(out, "A/A: both sides build the same commit, so every difference is noise")
	}
	names := make([]string, 0, len(row.Workloads))
	for w := range row.Workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, wn := range names {
		w := row.Workloads[wn]
		fmt.Fprintf(out, "\n%s: failed %d base, %d head; incorrect runs %d base, %d head\n\n",
			wn, w.Failed.Base, w.Failed.Head, w.Incorrect.Base, w.Incorrect.Head)
		fmt.Fprintln(out, "| metric | base median [q1, q3] | head median [q1, q3] | change | head wins | verdict |")
		fmt.Fprintln(out, "|---|---|---|---|---|---|")
		metrics := make([]string, 0, len(w.Metrics))
		for m := range w.Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, name := range metrics {
			m := w.Metrics[name]
			b, h := m.Stats.Base, m.Stats.Head
			change, wins, judged := "-", "-", "-"
			if b.Median != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(h.Median-b.Median)/b.Median)
			}
			if m.Wins != nil {
				wins, judged = fmt.Sprintf("%d/%d", *m.Wins, row.Pairs), m.Verdict
			}
			if m.OutsideBound {
				judged += ", outside bound"
			}
			fmt.Fprintf(out, "| %s (%s) | %.8g [%.8g, %.8g] | %.8g [%.8g, %.8g] | %s | %s | %s |\n",
				name, m.Unit, b.Median, b.Q1, b.Q3, h.Median, h.Q1, h.Q3, change, wins, judged)
		}
	}
}

// appendRow adds row to the JSON array in path, creating the file.
func appendRow(path string, row *Row) error {
	var rows []json.RawMessage
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(data, &rows); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	b, err := json.Marshal(row)
	if err != nil {
		return err
	}
	rows = append(rows, b)
	data, err = json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Command bench is the repository's benchmark: four fixed-work workloads
// driven through the in-process cluster over the loopback TCP data plane in
// the shipped default configuration. See README.md in this directory.
//
//	go run ./bench                          every workload, untraced
//	go run ./bench -workload lookup_fanout  one workload
//	go run ./bench -trace 1                 per-layer metrics from a traced run
//	go run ./bench -aa 5                    A/A: two interleaved sets of 5 runs
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the exit code is non-zero when any
// operation failed or any answer was wrong.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
)

// nominalSeconds is the -seconds value the pass lengths in workloadDefs are
// tuned for; other values scale every pass length in proportion.
const nominalSeconds = 16

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the builder contract asks for.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runInfo precedes the result line: where and how the numbers were taken.
type runInfo struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Nproc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Samples    map[string]int `json:"samples"`
	FirstError string         `json:"first_error,omitempty"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	aa       int
	smoke    bool
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all, each in its own process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the row and query generators")
	flag.Float64Var(&o.seconds, "seconds", nominalSeconds, "measured seconds a run is sized for; scales every pass length")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics")
	flag.IntVar(&o.aa, "aa", 0, "A/A mode: two interleaved sets of N runs per workload (N >= 5)")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny data and passes, for the tests")
	flag.StringVar(&o.out, "out", "", "directory the traced run writes its spans to (default: .bench_out/ in the working directory)")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(run(o))
}

func run(o options) int {
	switch {
	case o.aa > 0:
		return runAA(o)
	case o.workload == "":
		return runAll(o)
	}
	def := findWorkload(o.workload)
	if def == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	// query_p99_ms is read off the pooled latency-phase sample and needs at
	// least fifteen samples beyond it; -smoke runs are for the tests, which
	// compare counts only.
	if n := latencyPasses * o.sizes().npass(def.latLen); !o.smoke && n < minPooledSamples {
		fmt.Fprintf(os.Stderr, "bench: -seconds %v leaves %s %d pooled latency samples, query_p99_ms needs %d\n",
			o.seconds, def.name, n, minPooledSamples)
		return 2
	}
	// The run protocol pins the scheduler to the two cores the benchmark is
	// specified for, whatever the machine has.
	runtime.GOMAXPROCS(2)
	res, info, err := runOne(def, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", def.name, err)
		return 1
	}
	emit(info)
	emit(res)
	if !res.Correct {
		return 1
	}
	return 0
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
}

func (o options) sizes() sizes {
	if o.smoke {
		return sizes{rows: 0.02, pass: 0.02}
	}
	return sizes{rows: 1, pass: o.seconds / nominalSeconds}
}

// runOne runs one workload in this process.
func runOne(def *workloadDef, o options) (*result, *runInfo, error) {
	r := newRunner(def, o.seed, o.sizes())
	defer r.tearDown()
	info := &runInfo{
		Workload: def.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace != 0,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	res := &result{Metrics: map[string]metricValue{}}
	if o.trace != 0 {
		layers, err := r.traced(o.out)
		if err != nil {
			return nil, nil, err
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{layers.metrics[m.name], m.unit}
		}
		info.Samples = layers.samples
	} else {
		e2e, err := r.measure()
		if err != nil {
			return nil, nil, err
		}
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = metricValue{e2e.metrics[m.name], m.unit}
		}
		info.Samples = e2e.samples
	}
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0
	if r.firstErr != nil {
		info.FirstError = r.firstErr.Error()
	}
	return res, info, nil
}

// child re-executes this binary for one workload, so that no workload
// inherits another's heap, caches or GC pacing, and returns its result line.
func child(o options, workload string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace),
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	if o.out != "" {
		args = append(args, "-out", o.out)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	outBytes, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(outBytes), []byte("\n"))
	if len(outBytes) == 0 {
		return nil, fmt.Errorf("%s: no output (%v)", workload, runErr)
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s: %v (%v)", workload, err, runErr)
	}
	if len(lines) > 1 {
		fmt.Fprintf(os.Stderr, "%s\n", lines[len(lines)-2])
	}
	return &res, nil
}

// runAll runs every workload, each in a fresh process, and prints one
// result whose metric names carry the workload as a prefix.
func runAll(o options) int {
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, def := range workloadDefs {
		res, err := child(o, def.name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		all.Correct = all.Correct && res.Correct
		for name, v := range res.Metrics {
			all.Metrics[def.name+"/"+name] = v
		}
		fmt.Fprintf(os.Stderr, "%s: %d attempted, %d failed\n", def.name, res.Attempted, res.Failed)
	}
	emit(all)
	if !all.Correct {
		return 1
	}
	return 0
}

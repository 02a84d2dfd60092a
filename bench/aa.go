package main

import (
	"fmt"
	"math"
	"os"
)

// e2eMetric is one end-to-end metric as BENCHMARK.json declares it. bound is
// how far the metric may worsen before a change counts as a regression, and
// so also how far two sets of runs of the same code may disagree.
type e2eMetric struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
}

// The three count-like bounds are the issue's. The five time-like ones are
// the contract's maximum and not the issue's 0.10-0.15: the pipeline also
// holds the spread of ten single runs on ten seeds against the bound, and on
// the builder's shared cores 10 of 28 such sets were outside the issue's
// bounds, none outside 0.25 (README, "Where the bounds come from").
var endToEndMetrics = []e2eMetric{
	{"setup_s", "s", false, 0.25},
	{"query_p50_ms", "ms", false, 0.25},
	{"query_p99_ms", "ms", false, 0.25},
	{"throughput_qps", "1/s", true, 0.25},
	{"cpu_ms_per_query", "ms", false, 0.25},
	{"alloc_kb_per_query", "KB", false, 0.02},
	{"live_heap_mb", "MB", false, 0.02},
	{"stored_bytes_per_row", "B", false, 0.001},
}

// runAA runs, per workload, two interleaved sets of N runs of this same
// binary with the same seed, and prints for every end-to-end metric both
// medians, both quartile ranges (as a share of the median) and the
// disagreement of the medians against the bound. It fails when any
// disagreement exceeds half the bound.
func runAA(o options) int {
	if o.aa < 5 {
		fmt.Fprintln(os.Stderr, "bench: -aa needs N >= 5")
		return 2
	}
	defs := workloadDefs
	if o.workload != "" {
		def := findWorkload(o.workload)
		if def == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		defs = []*workloadDef{def}
	}
	o.trace = 0
	ok := true
	fmt.Printf("A/A, seed %d, two interleaved sets of %d runs\n\n", o.seed, o.aa)
	fmt.Println("| workload | metric | median A | median B | IQR A | IQR B | disagreement | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	for _, def := range defs {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < 2*o.aa; i++ {
			res, err := child(o, def.name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed\n", def.name, res.Failed, res.Attempted)
				ok = false
			}
			for name, v := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], v.Value)
			}
		}
		for _, m := range endToEndMetrics {
			a, b := sets[0][m.name], sets[1][m.name]
			ma, mb := median(a), median(b)
			disagreement := math.Abs(ma-mb) / ma
			verdict := "ok"
			if disagreement > m.bound/2 {
				verdict = "FAIL"
				ok = false
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.2f%% | %.2f%% | %.2f%% | %.1f%% | %s |\n",
				def.name, m.name, ma, mb, 100*iqrShare(a), 100*iqrShare(b), 100*disagreement, 100*m.bound, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// iqrShare is the distance between the quartiles as a share of the median.
func iqrShare(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, median(xs))
}

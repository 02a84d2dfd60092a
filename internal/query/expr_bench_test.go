package query

import (
	"context"
	"testing"
	"time"
)

// BenchmarkExprCompiledVsInterp runs one expression-heavy aggregation with
// compiled block kernels and again with the interpreter forced
// (ForceRungs), cross-checking the results agree and reporting both
// timings. The compiled-vs-interp ratio is the headline number for the
// expression pipeline (EXPERIMENTS.md); ns/op covers both runs.
func BenchmarkExprCompiledVsInterp(b *testing.B) {
	segs := benchSegments(b)
	const q = "SELECT sum((clicks - 3) * 2), max(abs(revenue - 50.0)) FROM events WHERE clicks + memberId > 40"
	ctx := context.Background()
	var compiledNS, interpNS time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		rc, err := Run(ctx, q, segs, nil, Options{})
		if err != nil {
			b.Fatal(err)
		}
		compiledNS += time.Since(start)

		start = time.Now()
		ri, err := Run(ctx, q, segs, nil, ForceRungs(Options{}, true, false))
		if err != nil {
			b.Fatal(err)
		}
		interpNS += time.Since(start)

		if len(rc.Rows) != 1 || len(rc.Rows[0]) != 2 || rc.Rows[0][0] != ri.Rows[0][0] || rc.Rows[0][1] != ri.Rows[0][1] {
			b.Fatalf("compiled and interpreted runs disagree: %+v vs %+v", rc.Rows, ri.Rows)
		}
	}
	b.ReportMetric(float64(compiledNS.Nanoseconds())/float64(b.N), "compiled-ns/op")
	b.ReportMetric(float64(interpNS.Nanoseconds())/float64(b.N), "interp-ns/op")
	b.ReportMetric(float64(interpNS)/float64(compiledNS), "interp/compiled")
}

// BenchmarkTimeBucketGroupBy: the paper's bread-and-butter dashboard shape —
// a time-series rollup whose group key is a derived expression. The constant
// bucket width compiles to a kernel feeding the single-long group path.
func BenchmarkTimeBucketGroupBy(b *testing.B) {
	benchRun(b, "SELECT sum(clicks), count(*) FROM events GROUP BY timeBucket(day, 7) TOP 10", Options{})
}

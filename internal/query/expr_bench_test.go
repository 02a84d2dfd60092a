package query

import "testing"

// BenchmarkTimeBucketGroupBy: the paper's bread-and-butter dashboard shape —
// a time-series rollup whose group key is a derived expression. The constant
// bucket width compiles to a kernel feeding the single-long group path.
func BenchmarkTimeBucketGroupBy(b *testing.B) {
	benchRun(b, "SELECT sum(clicks), count(*) FROM events GROUP BY timeBucket(day, 7) TOP 10", Options{})
}

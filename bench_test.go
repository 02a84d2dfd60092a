// Benchmarks regenerating the paper's evaluation (section 6), one set per
// table/figure. These run at reduced scale so `go test -bench=.` completes
// quickly; cmd/benchrunner runs the full latency-vs-QPS sweeps and prints
// the series each figure plots. The comparison shape — which technique wins
// and by roughly what factor — is the reproduction target.
package pinot

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"pinot/internal/broker"
	"pinot/internal/cluster"
	"pinot/internal/druid"
	"pinot/internal/query"
	"pinot/internal/segment"
	"pinot/internal/server"
	"pinot/internal/workload"
)

// benchFixture caches built datasets across benchmarks.
type benchFixture struct {
	dataset *workload.Dataset
	segs    map[string][]query.IndexedSegment
	queries []string
}

var (
	fixtures   = map[string]*benchFixture{}
	fixtureMu  sync.Mutex
	benchSize  = workload.SizeConfig{Segments: 2, RowsPerSegment: 20000, Seed: 1}
	benchQuery = 512
)

func anomalyFixture(b *testing.B) *benchFixture {
	return fixture(b, "anomaly", func() (*workload.Dataset, []workload.Variant) {
		d := workload.Anomaly(benchSize)
		return d, []workload.Variant{
			{Name: "noindex"},
			{Name: "inverted", Index: segment.IndexConfig{InvertedColumns: d.InvertedColumns}},
			{Name: "startree", StarTree: d.StarTree},
			{Name: "druid", Index: druid.IndexConfig(d.Schema), Druid: true},
		}
	})
}

func wvmpFixture(b *testing.B) *benchFixture {
	return fixture(b, "wvmp", func() (*workload.Dataset, []workload.Variant) {
		d := workload.ShareAnalytics(benchSize)
		return d, []workload.Variant{
			{Name: "sorted", Index: segment.IndexConfig{SortColumn: "vieweeId"}},
			{Name: "inverted", Index: segment.IndexConfig{InvertedColumns: d.InvertedColumns}},
			{Name: "noindex"},
			{Name: "druid", Index: druid.IndexConfig(d.Schema), Druid: true},
		}
	})
}

func fixture(b *testing.B, name string, mk func() (*workload.Dataset, []workload.Variant)) *benchFixture {
	b.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if f, ok := fixtures[name]; ok {
		return f
	}
	d, variants := mk()
	f := &benchFixture{dataset: d, segs: map[string][]query.IndexedSegment{}}
	for _, v := range variants {
		segs, _, err := d.BuildIndexed(v)
		if err != nil {
			b.Fatal(err)
		}
		f.segs[v.Name] = segs
	}
	f.queries = d.Queries(benchQuery, 99)
	fixtures[name] = f
	return f
}

func runQueries(b *testing.B, f *benchFixture, variant string, opts query.Options) {
	b.Helper()
	segs := f.segs[variant]
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.queries[i%len(f.queries)]
		if _, err := query.Run(ctx, q, segs, f.dataset.Schema, opts); err != nil {
			b.Fatalf("%s: %v", q, err)
		}
	}
}

// ---- Figure 11 / Figure 12: indexing techniques on the anomaly dataset ----
// (Figure 11 sweeps QPS — see cmd/benchrunner; Figure 12 is the sequential
// latency distribution, which these per-query benchmarks measure directly.)

func BenchmarkFig11Druid(b *testing.B) {
	runQueries(b, anomalyFixture(b), "druid", druid.Options())
}

func BenchmarkFig11PinotNoIndex(b *testing.B) {
	runQueries(b, anomalyFixture(b), "noindex", query.Options{})
}

func BenchmarkFig11PinotInverted(b *testing.B) {
	runQueries(b, anomalyFixture(b), "inverted", query.Options{})
}

func BenchmarkFig11PinotStarTree(b *testing.B) {
	runQueries(b, anomalyFixture(b), "startree", query.Options{})
}

// Figure 12 uses the same four systems sequentially; aliases keep the
// table/figure ↔ benchmark mapping explicit.

func BenchmarkFig12SequentialDruid(b *testing.B) {
	runQueries(b, anomalyFixture(b), "druid", druid.Options())
}

func BenchmarkFig12SequentialPinotStarTree(b *testing.B) {
	runQueries(b, anomalyFixture(b), "startree", query.Options{})
}

// ---- Figure 13: star-tree pre-aggregated records scanned vs raw docs ----

func BenchmarkFig13StarTreeRatio(b *testing.B) {
	f := anomalyFixture(b)
	segs := f.segs["startree"]
	ctx := context.Background()
	var scanned, raw int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.queries[i%len(f.queries)]
		res, err := query.Run(ctx, q, segs, f.dataset.Schema, query.Options{})
		if err != nil {
			b.Fatal(err)
		}
		scanned += res.Stats.StarTreeRecordsScanned
		raw += res.Stats.StarTreeRawDocs
	}
	b.StopTimer()
	if raw > 0 {
		b.ReportMetric(float64(scanned)/float64(raw), "scan-ratio")
	}
}

// ---- Figure 14: Druid vs Pinot on the share-analytics dataset ----

func BenchmarkFig14Pinot(b *testing.B) {
	runQueries(b, wvmpFixture(b), "sorted", query.Options{})
}

func BenchmarkFig14Druid(b *testing.B) {
	runQueries(b, wvmpFixture(b), "druid", druid.Options())
}

// ---- Figure 15: sorted-column vs inverted-index on the WVMP dataset ----

func BenchmarkFig15Sorted(b *testing.B) {
	runQueries(b, wvmpFixture(b), "sorted", query.Options{})
}

func BenchmarkFig15Inverted(b *testing.B) {
	runQueries(b, wvmpFixture(b), "inverted", query.Options{})
}

func BenchmarkFig15NoIndex(b *testing.B) {
	runQueries(b, wvmpFixture(b), "noindex", query.Options{})
}

// ---- Figure 16: routing optimizations on the impression-discounting
// dataset (full broker/server path) ----

type fig16Cluster struct {
	c       *cluster.Cluster
	queries []string
}

var (
	fig16Mu       sync.Mutex
	fig16Clusters = map[string]*fig16Cluster{}
)

func fig16Fixture(b *testing.B, strategy broker.Strategy, partitionAware bool) *fig16Cluster {
	b.Helper()
	fig16Mu.Lock()
	defer fig16Mu.Unlock()
	key := fmt.Sprintf("%s/%v", strategy, partitionAware)
	if f, ok := fig16Clusters[key]; ok {
		return f
	}
	const partitions = 4
	d := workload.Impressions(workload.SizeConfig{Segments: 8, RowsPerSegment: 5000, Seed: 1}, partitions)
	c, err := cluster.NewLocal(cluster.Options{
		Servers: 4,
		BrokerTemplate: broker.Config{
			Strategy:       strategy,
			TargetServers:  2,
			PartitionAware: partitionAware,
			Seed:           1,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := &TableConfig{
		Name:            d.Name,
		Type:            Offline,
		Schema:          d.Schema,
		Replicas:        2,
		SortColumn:      d.SortColumn,
		PartitionColumn: d.PartitionColumn,
		NumPartitions:   partitions,
	}
	if err := c.AddTable(cfg); err != nil {
		b.Fatal(err)
	}
	for si := 0; si < d.NumSegments; si++ {
		blob, err := BuildSegmentBlob(d.Name, fmt.Sprintf("%s_%d", d.Name, si), d.Schema,
			IndexConfig{SortColumn: d.SortColumn}, d.Rows(si), nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.UploadSegment(d.Name+"_OFFLINE", blob); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.WaitForOnline(d.Name+"_OFFLINE", d.NumSegments, 10*time.Second); err != nil {
		b.Fatal(err)
	}
	f := &fig16Cluster{c: c, queries: d.Queries(benchQuery, 7)}
	fig16Clusters[key] = f
	return f
}

func runFig16(b *testing.B, f *fig16Cluster) {
	b.Helper()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := f.queries[i%len(f.queries)]
		if _, err := f.c.Execute(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16Balanced(b *testing.B) {
	runFig16(b, fig16Fixture(b, broker.StrategyBalanced, false))
}

func BenchmarkFig16LargeCluster(b *testing.B) {
	runFig16(b, fig16Fixture(b, broker.StrategyLargeCluster, false))
}

func BenchmarkFig16PartitionAware(b *testing.B) {
	runFig16(b, fig16Fixture(b, broker.StrategyBalanced, true))
}

// ---- Ablations for the design choices DESIGN.md calls out ----

// Sorted-range-first ordering vs naive bitmap intersection (paper 4.2).
func BenchmarkAblationSortedRangeFirst(b *testing.B) {
	runQueries(b, wvmpFixture(b), "sorted", query.Options{})
}

func BenchmarkAblationForcedBitmap(b *testing.B) {
	runQueries(b, wvmpFixture(b), "inverted", query.Options{ForceBitmap: true})
}

// Metadata-only plan fast path (paper 4.1/3.3.4).
func BenchmarkAblationMetadataPlanOn(b *testing.B) {
	f := anomalyFixture(b)
	benchCountStar(b, f, query.Options{})
}

func BenchmarkAblationMetadataPlanOff(b *testing.B) {
	f := anomalyFixture(b)
	benchCountStar(b, f, query.Options{DisableMetadataPlans: true})
}

func benchCountStar(b *testing.B, f *benchFixture, opts query.Options) {
	b.Helper()
	ctx := context.Background()
	segs := f.segs["noindex"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.Run(ctx, "SELECT count(*) FROM anomaly", segs, f.dataset.Schema, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// Block-at-a-time execution on the no-index variants, where per-document
// overheads dominate. The fixed queries isolate the two hot shapes (full-scan
// aggregation and group-by); Mixed runs the regular seeded workload for an
// end-to-end view.

func benchFixedQuery(b *testing.B, f *benchFixture, variant, q string, opts query.Options) {
	b.Helper()
	segs := f.segs[variant]
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.Run(ctx, q, segs, f.dataset.Schema, opts); err != nil {
			b.Fatalf("%s: %v", q, err)
		}
	}
}

const (
	anomalyScanAggQ = "SELECT sum(value), max(value), count(*) FROM anomaly WHERE count > 5"
	anomalyGroupByQ = "SELECT sum(value), count(*) FROM anomaly WHERE day >= 16000 GROUP BY country TOP 10"
	wvmpScanAggQ    = "SELECT sum(views), count(*) FROM wvmp WHERE vieweeId <= 400"
	wvmpGroupByQ    = "SELECT sum(views) FROM wvmp WHERE day >= 16000 GROUP BY region, seniority TOP 20"
)

func BenchmarkVecAnomalyScanAgg(b *testing.B) {
	benchFixedQuery(b, anomalyFixture(b), "noindex", anomalyScanAggQ, query.Options{})
}

func BenchmarkVecAnomalyGroupBy(b *testing.B) {
	benchFixedQuery(b, anomalyFixture(b), "noindex", anomalyGroupByQ, query.Options{})
}

func BenchmarkVecWVMPScanAgg(b *testing.B) {
	benchFixedQuery(b, wvmpFixture(b), "noindex", wvmpScanAggQ, query.Options{})
}

func BenchmarkVecWVMPGroupBy(b *testing.B) {
	benchFixedQuery(b, wvmpFixture(b), "noindex", wvmpGroupByQ, query.Options{})
}

func BenchmarkVecAnomalyMixed(b *testing.B) {
	runQueries(b, anomalyFixture(b), "noindex", query.Options{})
}

// Star-tree maxLeafRecords sensitivity (paper 4.3).
func BenchmarkAblationStarTreeLeaf100(b *testing.B)   { benchStarTreeLeaf(b, 100) }
func BenchmarkAblationStarTreeLeaf10000(b *testing.B) { benchStarTreeLeaf(b, 10000) }

var (
	leafMu   sync.Mutex
	leafSegs = map[int][]query.IndexedSegment{}
)

func benchStarTreeLeaf(b *testing.B, maxLeaf int) {
	b.Helper()
	d := workload.Anomaly(benchSize)
	leafMu.Lock()
	segs, ok := leafSegs[maxLeaf]
	if !ok {
		st := *d.StarTree
		st.MaxLeafRecords = maxLeaf
		var err error
		segs, _, err = d.BuildIndexed(workload.Variant{Name: "startree", StarTree: &st})
		if err != nil {
			leafMu.Unlock()
			b.Fatal(err)
		}
		leafSegs[maxLeaf] = segs
	}
	leafMu.Unlock()
	queries := d.Queries(benchQuery, 99)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.Run(ctx, queries[i%len(queries)], segs, d.Schema, query.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Token-bucket multitenancy overhead (paper 4.5): the scheduler's cost on
// the query path when the tenant has budget.
func BenchmarkAblationTenancyOff(b *testing.B) { benchTenancy(b, 0) }
func BenchmarkAblationTenancyOn(b *testing.B)  { benchTenancy(b, 1000) }

var (
	tenancyMu       sync.Mutex
	tenancyClusters = map[float64]*fig16Cluster{}
)

func benchTenancy(b *testing.B, tokens float64) {
	b.Helper()
	tenancyMu.Lock()
	f, ok := tenancyClusters[tokens]
	if !ok {
		c, err := cluster.NewLocal(cluster.Options{
			Servers:        1,
			ServerTemplate: server.Config{TenantTokens: tokens, TenantRefill: tokens},
		})
		if err != nil {
			tenancyMu.Unlock()
			b.Fatal(err)
		}
		d := workload.Anomaly(workload.SizeConfig{Segments: 1, RowsPerSegment: 10000, Seed: 1})
		cfg := &TableConfig{Name: d.Name, Type: Offline, Schema: d.Schema, Replicas: 1}
		if err := c.AddTable(cfg); err != nil {
			tenancyMu.Unlock()
			b.Fatal(err)
		}
		blob, err := BuildSegmentBlob(d.Name, d.Name+"_0", d.Schema, IndexConfig{}, d.Rows(0), nil)
		if err != nil {
			tenancyMu.Unlock()
			b.Fatal(err)
		}
		if err := c.UploadSegment(d.Name+"_OFFLINE", blob); err != nil {
			tenancyMu.Unlock()
			b.Fatal(err)
		}
		if err := c.WaitForOnline(d.Name+"_OFFLINE", 1, 10*time.Second); err != nil {
			tenancyMu.Unlock()
			b.Fatal(err)
		}
		f = &fig16Cluster{c: c, queries: d.Queries(256, 3)}
		tenancyClusters[tokens] = f
	}
	tenancyMu.Unlock()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.c.Broker().Execute(ctx, f.queries[i%len(f.queries)], "bench-tenant"); err != nil {
			b.Fatal(err)
		}
	}
}

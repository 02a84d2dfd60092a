// Command benchrunner regenerates the paper's evaluation (section 6): for
// every figure it builds the corresponding synthetic workload, runs the
// latency-vs-QPS sweep (or sequential distribution / ratio measurement) for
// each system configuration, and prints the series the figure plots.
//
//	benchrunner -experiment all -scale small
//	benchrunner -experiment fig11 -qps 50,100,200,400,800 -duration 2s
//
// Absolute numbers depend on the host; the reproduction target is the shape:
// which technique wins and by roughly what factor (see EXPERIMENTS.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"pinot/internal/broker"
	"pinot/internal/cluster"
	"pinot/internal/druid"
	"pinot/internal/loadgen"
	"pinot/internal/query"
	"pinot/internal/segment"
	"pinot/internal/table"
	"pinot/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage marks an error in the command line.
var errUsage = errors.New("usage")

// run parses args and runs the chosen experiments, printing their tables to
// out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchrunner", flag.ExitOnError)
	var (
		experiment = fs.String("experiment", "all", "fig11|fig12|fig13|fig14|fig15|fig16|table1|all")
		scale      = fs.String("scale", "small", "small|medium|large dataset scale")
		duration   = fs.Duration("duration", 2*time.Second, "duration per sweep point")
		qpsList    = fs.String("qps", "", "comma-separated QPS targets (default per experiment)")
		queries    = fs.Int("queries", 10000, "queries for sequential experiments (fig12, fig13)")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent query workers")
		seed       = fs.Int64("seed", 1, "workload seed")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits with status 2

	r := &runner{
		out:      out,
		scale:    *scale,
		duration: *duration,
		queries:  *queries,
		workers:  *workers,
		seed:     *seed,
	}
	if *qpsList != "" {
		for _, s := range strings.Split(*qpsList, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return fmt.Errorf("%w: bad -qps value %q: %v", errUsage, s, err)
			}
			r.qps = append(r.qps, v)
		}
	}

	experiments := map[string]func() error{
		"table1": r.table1,
		"fig11":  r.fig11,
		"fig12":  r.fig12,
		"fig13":  r.fig13,
		"fig14":  r.fig14,
		"fig15":  r.fig15,
		"fig16":  r.fig16,
	}
	names := []string{*experiment}
	if *experiment == "all" {
		names = []string{"table1", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16"}
	}
	for _, name := range names {
		fn, ok := experiments[name]
		if !ok {
			return fmt.Errorf("%w: unknown experiment %q", errUsage, name)
		}
		if err := fn(); err != nil {
			return fmt.Errorf("%s failed: %w", name, err)
		}
	}
	return nil
}

type runner struct {
	out      io.Writer
	scale    string
	duration time.Duration
	queries  int
	workers  int
	seed     int64
	qps      []float64
}

func (r *runner) size(smallSegs, smallRows int) workload.SizeConfig {
	mult := 1
	switch r.scale {
	case "medium":
		mult = 4
	case "large":
		mult = 16
	}
	return workload.SizeConfig{Segments: smallSegs, RowsPerSegment: smallRows * mult, Seed: r.seed}
}

func (r *runner) qpsTargets(def []float64) []float64 {
	if len(r.qps) > 0 {
		return r.qps
	}
	return def
}

// system is one line of a figure: a name and a query executor.
type system struct {
	name   string
	target loadgen.Target
}

// engineSystem builds a single-process executor over indexed segments,
// round-robining the sampled query set.
func engineSystem(name string, d *workload.Dataset, v workload.Variant, queries []string) (system, int64, error) {
	segs, bytes, err := d.BuildIndexed(v)
	if err != nil {
		return system{}, 0, err
	}
	opts := v.PlanOptions()
	var idx atomic.Int64
	return system{
		name: name,
		target: func(ctx context.Context) error {
			q := queries[int(idx.Add(1))%len(queries)]
			_, err := query.Run(ctx, q, segs, d.Schema, opts)
			return err
		},
	}, bytes, nil
}

func (r *runner) header(title string) {
	fmt.Fprintf(r.out, "\n===== %s =====\n", title)
}

// sweepTable prints a latency-vs-QPS table: one row per target rate, one
// column group per system. A query that fails, warm-up included, fails the
// sweep once the table is printed.
func (r *runner) sweepTable(systems []system, targets []float64) error {
	var failed []string
	check := func(name string, p loadgen.Point) {
		if p.Errors > 0 {
			failed = append(failed, fmt.Sprintf("%s: %d of %d queries failed at %.0f qps", name, p.Errors, p.Queries, p.TargetQPS))
		}
	}
	type row struct {
		qps    float64
		points map[string]loadgen.Point
	}
	// Warm each system (cache/JIT/routing-table effects) before
	// measuring.
	for _, s := range systems {
		check(s.name, loadgen.RunOpenLoop(context.Background(), s.target, targets[0], 300*time.Millisecond, r.workers))
	}
	var rows []row
	for _, qps := range targets {
		rw := row{qps: qps, points: map[string]loadgen.Point{}}
		for _, s := range systems {
			rw.points[s.name] = loadgen.RunOpenLoop(context.Background(), s.target, qps, r.duration, r.workers)
			check(s.name, rw.points[s.name])
		}
		rows = append(rows, rw)
	}
	w := tabwriter.NewWriter(r.out, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "qps")
	for _, s := range systems {
		fmt.Fprintf(w, "\t%s avg(ms)\t%s p99(ms)", s.name, s.name)
	}
	fmt.Fprintln(w)
	for _, rw := range rows {
		fmt.Fprintf(w, "%.0f", rw.qps)
		for _, s := range systems {
			p := rw.points[s.name]
			fmt.Fprintf(w, "\t%.3f\t%.3f", ms(p.Mean), ms(p.P99))
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "; "))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---- Table 1 ----

func (r *runner) table1() error {
	r.header("Table 1: techniques for OLAP and their applicability (qualitative)")
	w := tabwriter.NewWriter(r.out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Technique\tFast ingest+index\tHigh query rate\tFlexibility\tLatency")
	for _, row := range [][5]string{
		{"RDBMS", "Not typically", "Yes", "High", "Low/moderate"},
		{"KV stores", "Yes", "Yes", "None", "Low"},
		{"Online OLAP", "No", "Not typically", "High", "Low/moderate"},
		{"Offline OLAP", "No", "No", "High", "High"},
		{"Druid", "Yes", "No", "Moderate", "Low/moderate"},
		{"Pinot", "Yes", "Yes", "Moderate", "Low"},
	} {
		fmt.Fprintln(w, strings.Join(row[:], "\t"))
	}
	w.Flush()
	return nil
}

// ---- Figure 11: indexing techniques on the anomaly dataset ----

func (r *runner) anomalySystems() ([]system, *workload.Dataset, error) {
	d := workload.Anomaly(r.size(4, 50000))
	queries := d.Queries(4096, r.seed+100)
	specs := []struct {
		name string
		v    workload.Variant
	}{
		{"druid", workload.Variant{Index: druid.IndexConfig(d.Schema), Druid: true}},
		{"pinot-noindex", workload.Variant{}},
		{"pinot-inverted", workload.Variant{Index: segment.IndexConfig{InvertedColumns: d.InvertedColumns}}},
		{"pinot-startree", workload.Variant{StarTree: d.StarTree}},
	}
	var out []system
	for _, sp := range specs {
		s, bytes, err := engineSystem(sp.name, d, sp.v, queries)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(r.out, "  built %-16s %8.1f MiB\n", sp.name, float64(bytes)/(1<<20))
		out = append(out, s)
	}
	return out, d, nil
}

func (r *runner) fig11() error {
	r.header("Figure 11: latency vs query rate, anomaly detection dataset")
	systems, _, err := r.anomalySystems()
	if err != nil {
		return err
	}
	return r.sweepTable(systems, r.qpsTargets([]float64{100, 400, 1600, 3200, 6400}))
}

// ---- Figure 12: sequential latency distribution ----

func (r *runner) fig12() error {
	r.header(fmt.Sprintf("Figure 12: latency distribution, %d sequential queries", r.queries))
	systems, _, err := r.anomalySystems()
	if err != nil {
		return err
	}
	type dist struct {
		name string
		h    *loadgen.Histogram
	}
	var dists []dist
	for _, s := range systems {
		h, errs := loadgen.RunSequential(context.Background(), s.target, r.queries)
		if errs > 0 {
			return fmt.Errorf("%s: %d query errors", s.name, errs)
		}
		dists = append(dists, dist{s.name, h})
	}
	w := tabwriter.NewWriter(r.out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "system\tmean(ms)\tp50(ms)\tp90(ms)\tp95(ms)\tp99(ms)")
	for _, ds := range dists {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\n", ds.name,
			ms(ds.h.Mean()), ms(ds.h.Quantile(0.5)), ms(ds.h.Quantile(0.9)),
			ms(ds.h.Quantile(0.95)), ms(ds.h.Quantile(0.99)))
	}
	w.Flush()
	// Density series (the KDE input): per-system bucket counts.
	fmt.Fprintln(r.out, "\nlatency density (bucket_ms count), per system:")
	for _, ds := range dists {
		var parts []string
		for _, b := range ds.h.Buckets() {
			parts = append(parts, fmt.Sprintf("%.2f:%d", ms(b.Latency), b.Count))
		}
		const maxShow = 24
		if len(parts) > maxShow {
			step := len(parts) / maxShow
			var sampled []string
			for i := 0; i < len(parts); i += step + 1 {
				sampled = append(sampled, parts[i])
			}
			parts = sampled
		}
		fmt.Fprintf(r.out, "  %-16s %s\n", ds.name, strings.Join(parts, " "))
	}
	return nil
}

// ---- Figure 13: star-tree scanned/raw ratio distribution ----

func (r *runner) fig13() error {
	r.header("Figure 13: ratio of star-tree pre-aggregated records scanned vs raw records")
	d := workload.Anomaly(r.size(4, 50000))
	segs, _, err := d.BuildIndexed(workload.Variant{StarTree: d.StarTree})
	if err != nil {
		return err
	}
	queries := d.Queries(r.queries, r.seed+200)
	var ratios []float64
	for _, q := range queries {
		res, err := query.Run(context.Background(), q, segs, d.Schema, query.Options{})
		if err != nil {
			return err
		}
		if res.Stats.StarTreeRawDocs > 0 {
			ratios = append(ratios, float64(res.Stats.StarTreeRecordsScanned)/float64(res.Stats.StarTreeRawDocs))
		}
	}
	if len(ratios) == 0 {
		return fmt.Errorf("no star-tree queries executed")
	}
	sort.Float64s(ratios)
	buckets := make([]int, 20)
	for _, x := range ratios {
		b := int(x * 20)
		if b >= 20 {
			b = 19
		}
		buckets[b]++
	}
	fmt.Fprintln(r.out, "ratio histogram (bucket upper bound → fraction of queries):")
	for b, n := range buckets {
		if n == 0 {
			continue
		}
		frac := float64(n) / float64(len(ratios))
		fmt.Fprintf(r.out, "  %.2f\t%.4f\t%s\n", float64(b+1)/20, frac, strings.Repeat("#", int(frac*60)+1))
	}
	fmt.Fprintf(r.out, "median ratio %.4f, p90 %.4f, mean raw docs %d\n",
		ratios[len(ratios)/2], ratios[int(float64(len(ratios))*0.9)], d.NumSegments*d.RowsPerSegment/d.NumSegments)
	return nil
}

// ---- Figure 14: Druid vs Pinot, share analytics ----

func (r *runner) fig14() error {
	r.header("Figure 14: Druid vs Pinot, share-analytics dataset")
	d := workload.ShareAnalytics(r.size(4, 100000))
	queries := d.Queries(4096, r.seed+300)
	pinot, pinotBytes, err := engineSystem("pinot", d, workload.Variant{
		Index: segment.IndexConfig{SortColumn: d.SortColumn},
	}, queries)
	if err != nil {
		return err
	}
	dr, druidBytes, err := engineSystem("druid", d, workload.Variant{
		Index: druid.IndexConfig(d.Schema), Druid: true,
	}, queries)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "  data size: pinot %.1f MiB, druid %.1f MiB (paper: 300 GB vs 1.2 TB)\n",
		float64(pinotBytes)/(1<<20), float64(druidBytes)/(1<<20))
	return r.sweepTable([]system{dr, pinot}, r.qpsTargets([]float64{400, 1600, 3200, 6400, 12800}))
}

// ---- Figure 15: sorted vs inverted on WVMP ----

func (r *runner) fig15() error {
	r.header("Figure 15: physically sorted vs bitmap inverted index, WVMP dataset")
	d := workload.WVMP(r.size(4, 100000))
	queries := d.Queries(4096, r.seed+400)
	sorted, _, err := engineSystem("sorted", d, workload.Variant{
		Index: segment.IndexConfig{SortColumn: "vieweeId"},
	}, queries)
	if err != nil {
		return err
	}
	inverted, _, err := engineSystem("inverted", d, workload.Variant{
		Index: segment.IndexConfig{InvertedColumns: d.InvertedColumns},
	}, queries)
	if err != nil {
		return err
	}
	return r.sweepTable([]system{inverted, sorted}, r.qpsTargets([]float64{400, 1600, 3200, 6400, 12800}))
}

// ---- Figure 16: routing optimizations, impression discounting ----

func (r *runner) fig16() error {
	r.header("Figure 16: routing optimizations, impression-discounting dataset")
	const partitions = 4
	d := workload.Impressions(r.size(8, 25000), partitions)
	queries := d.Queries(4096, r.seed+500)

	configs := []struct {
		name           string
		strategy       broker.Strategy
		partitionAware bool
		druid          bool
	}{
		{"druid-baseline", broker.StrategyBalanced, false, true},
		{"unpartitioned", broker.StrategyBalanced, false, false},
		{"large-cluster", broker.StrategyLargeCluster, false, false},
		{"partition-aware", broker.StrategyBalanced, true, false},
	}
	// Each segment is built once per layout and uploaded to every cluster
	// that uses the layout.
	layouts := map[bool]segment.IndexConfig{
		false: {SortColumn: d.SortColumn},
		true:  druid.IndexConfig(d.Schema),
	}
	blobs := map[bool][][]byte{}
	for si := 0; si < d.NumSegments; si++ {
		rows := d.Rows(si)
		for druidMode, idx := range layouts {
			blob, err := buildBlob(d, fmt.Sprintf("%s_%d", d.Name, si), idx, rows)
			if err != nil {
				return err
			}
			blobs[druidMode] = append(blobs[druidMode], blob)
		}
	}
	var systems []system
	var clusters []*cluster.Cluster
	defer func() {
		for _, c := range clusters {
			c.Shutdown()
		}
	}()
	for _, cfg := range configs {
		c, err := buildFig16Cluster(d, partitions, cfg.strategy, cfg.partitionAware, cfg.druid, r.seed, layouts[cfg.druid], blobs[cfg.druid])
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.name, err)
		}
		clusters = append(clusters, c)
		var idx atomic.Int64
		systems = append(systems, system{
			name: cfg.name,
			target: func(ctx context.Context) error {
				q := queries[int(idx.Add(1))%len(queries)]
				_, err := c.Execute(ctx, q)
				return err
			},
		})
	}
	return r.sweepTable(systems, r.qpsTargets([]float64{400, 1600, 3200, 6400}))
}

func buildFig16Cluster(d *workload.Dataset, partitions int, strategy broker.Strategy, partitionAware, druidMode bool, seed int64, idx segment.IndexConfig, blobs [][]byte) (*cluster.Cluster, error) {
	opts := cluster.Options{
		Servers: 4,
		BrokerTemplate: broker.Config{
			Strategy:       strategy,
			TargetServers:  2,
			PartitionAware: partitionAware,
			Seed:           seed,
		},
	}
	if druidMode {
		opts.ServerTemplate.PlanOptions = druid.Options()
	}
	c, err := cluster.NewLocal(opts)
	if err != nil {
		return nil, err
	}
	cfg := &table.Config{
		Name:            d.Name,
		Type:            table.Offline,
		Schema:          d.Schema,
		Replicas:        2,
		SortColumn:      idx.SortColumn,
		InvertedColumns: idx.InvertedColumns,
		PartitionColumn: d.PartitionColumn,
		NumPartitions:   partitions,
	}
	if err := c.AddTable(cfg); err != nil {
		c.Shutdown()
		return nil, err
	}
	for _, blob := range blobs {
		if err := c.UploadSegment(d.Name+"_OFFLINE", blob); err != nil {
			c.Shutdown()
			return nil, err
		}
	}
	if err := c.WaitForOnline(d.Name+"_OFFLINE", d.NumSegments, 30*time.Second); err != nil {
		c.Shutdown()
		return nil, err
	}
	return c, nil
}

// buildBlob builds one segment of the dataset from its rows and serializes
// it for upload.
func buildBlob(d *workload.Dataset, name string, idx segment.IndexConfig, rows []segment.Row) ([]byte, error) {
	b, err := segment.NewBuilder(d.Name, name, d.Schema, idx)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		if err := b.Add(row); err != nil {
			return nil, err
		}
	}
	seg, err := b.Build()
	if err != nil {
		return nil, err
	}
	return seg.Marshal()
}

// Package workload generates the synthetic equivalents of the paper's three
// production evaluation datasets and their sampled query sets (section 6):
//
//   - Anomaly: the ad-hoc reporting / anomaly-detection dataset behind
//     Figures 11–13 — moderate-cardinality business-metric dimensions, SUM
//     aggregations with variable filters and group-bys.
//   - ShareAnalytics (a.k.a. WVMP): the "share analytics" / "who viewed my
//     profile" dataset behind Figures 14–15 — a Zipf-skewed high-cardinality
//     entity key every query filters on, plus a few facet dimensions.
//   - Impressions: the impression-discounting dataset behind Figure 16 —
//     member-partitioned selection lookups at very high rates.
//
// All generation is deterministic from the seed, so experiments reproduce
// bit-for-bit.
package workload

import (
	"fmt"
	"math/rand"

	"pinot/internal/druid"
	"pinot/internal/query"
	"pinot/internal/segment"
	"pinot/internal/startree"
)

// Dataset describes one synthetic workload: schema, deterministic row
// generation, recommended index configurations and a query sampler.
type Dataset struct {
	Name   string
	Schema *segment.Schema
	// NumSegments and RowsPerSegment size the data.
	NumSegments    int
	RowsPerSegment int
	// SortColumn, InvertedColumns and StarTree are the dataset's natural
	// Pinot index configuration; figure variants override them.
	SortColumn      string
	InvertedColumns []string
	StarTree        *startree.Config
	// PartitionColumn/NumPartitions for partition-aware routing.
	PartitionColumn string
	NumPartitions   int

	seed    int64
	genRow  func(r *rand.Rand, rowIdx int) segment.Row
	genQry  func(r *rand.Rand) string
	rowSalt int64
}

// Rows generates segment si's rows deterministically.
func (d *Dataset) Rows(si int) []segment.Row {
	r := rand.New(rand.NewSource(d.seed + int64(si)*7919 + d.rowSalt))
	rows := make([]segment.Row, d.RowsPerSegment)
	base := si * d.RowsPerSegment
	for i := range rows {
		rows[i] = d.genRow(r, base+i)
	}
	return rows
}

// Queries samples n PQL queries.
func (d *Dataset) Queries(n int, seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		out[i] = d.genQry(r)
	}
	return out
}

// Variant is a named index configuration of a dataset, the unit the figures
// sweep over (e.g. "no index" vs "inverted" vs "star-tree").
type Variant struct {
	Name     string
	Index    segment.IndexConfig
	StarTree *startree.Config
	// Druid marks the Druid-baseline execution model (inverted index on
	// every dimension, bitmap-only evaluation, every segment planned).
	Druid bool
}

// PlanOptions returns the query-engine options for the variant.
func (v Variant) PlanOptions() query.Options {
	if v.Druid {
		return druid.Options()
	}
	return query.Options{}
}

// BuildIndexed builds every segment of the dataset under a variant's index
// configuration, returning queryable indexed segments and the total
// serialized size in bytes (the on-disk footprint the paper compares).
func (d *Dataset) BuildIndexed(v Variant) ([]query.IndexedSegment, int64, error) {
	var out []query.IndexedSegment
	var bytes int64
	for si := 0; si < d.NumSegments; si++ {
		b, err := segment.NewBuilder(d.Name, fmt.Sprintf("%s_%d", d.Name, si), d.Schema, v.Index)
		if err != nil {
			return nil, 0, err
		}
		for _, row := range d.Rows(si) {
			if err := b.Add(row); err != nil {
				return nil, 0, err
			}
		}
		seg, err := b.Build()
		if err != nil {
			return nil, 0, err
		}
		is := query.IndexedSegment{Seg: seg}
		if v.StarTree != nil {
			tree, err := startree.Build(seg, *v.StarTree)
			if err != nil {
				return nil, 0, err
			}
			is.Tree = tree
			data, err := tree.Marshal()
			if err != nil {
				return nil, 0, err
			}
			seg.SetStarTreeData(data)
		}
		blob, err := seg.Marshal()
		if err != nil {
			return nil, 0, err
		}
		bytes += int64(len(blob))
		out = append(out, is)
	}
	return out, bytes, nil
}

func mustSchema(name string, fields []segment.FieldSpec) *segment.Schema {
	s, err := segment.NewSchema(name, fields)
	if err != nil {
		panic(err)
	}
	return s
}

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.Intn(len(xs))] }

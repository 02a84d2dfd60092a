// Package druid implements the Druid-style baseline the paper compares
// against (sections 2 and 6). It shares Pinot's storage substrate but
// follows Druid's execution model, capturing the three differences the
// paper attributes the performance gaps to:
//
//  1. Every dimension column carries a bitmap inverted index ("in Druid,
//     all dimension columns have an associated inverted index; as not all
//     dimensions are used in filtering predicates, this leads to a larger
//     on-disk size for Druid over Pinot").
//  2. Filters always evaluate through those bitmaps — no sorted-column
//     contiguous-range fast path and no iterator-scan fallback.
//  3. No star-tree index and no metadata-only plans.
//
// Data is not rolled up at ingestion so both engines answer over identical
// rows and results can be cross-checked exactly.
package druid

import (
	"pinot/internal/query"
	"pinot/internal/segment"
)

// Options returns the query-engine options that model Druid's execution.
func Options() query.Options {
	return query.Options{
		ForceBitmap:          true,
		DisableSorted:        true,
		DisableStarTree:      true,
		DisableMetadataPlans: true,
		// Zone-map pruning is Pinot-side machinery; the baseline always
		// plans every segment.
		DisablePruning: true,
	}
}

// IndexConfig returns Druid's physical layout for a schema: inverted
// indexes on every dimension (including the time column), no sort column.
func IndexConfig(schema *segment.Schema) segment.IndexConfig {
	return segment.IndexConfig{InvertedColumns: schema.DimensionNames()}
}

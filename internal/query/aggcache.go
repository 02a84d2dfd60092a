package query

import (
	"context"
	"strings"

	"pinot/internal/pql"
	"pinot/internal/segment"
)

// Server-side partial-aggregate cache: per-segment merged aggregation state
// keyed on (segment ID, filter signature, aggregation signature), checked
// before plan execution and filled after. The value is the intermediate's
// encoded bytes (wire.go), held at exactly their length: the cache shares no
// memory with any query, the collector has no pointers to trace in it, and
// the tier's byte bound is what it occupies. Only immutable segments are
// cacheable — a consuming (mutable) segment changes under every query — and
// only aggregation shapes are stored: selection intermediates are row sets
// whose merge order is not deterministic across runs, and caching them
// would trade byte-identical responses for little (selection rows dwarf
// aggregate states anyway, the wrong side of the small-result bias).

// aggCacheable reports whether a per-segment execution may go through the
// partial-aggregate cache.
func aggCacheable(q *pql.Query, is IndexedSegment) bool {
	if !q.IsAggregation() {
		return false
	}
	_, consuming := is.Seg.(*segment.Snapshot)
	return !consuming
}

// aggCacheKey renders the (filter signature, aggregation signature) part of
// the cache key; the segment ID is the cache scope. Execute renders it
// once per distinct query and hands it to each segment's execution. The filter is
// canonicalized so commuted predicates collide, and TOP/LIMIT/ORDER are
// deliberately excluded: per-segment group-by intermediates carry every
// group (TOP applies at finalize), so all TOP variants of one aggregation
// share an entry.
func aggCacheKey(q *pql.Query) string {
	var sb strings.Builder
	for _, e := range q.Select {
		if e.IsAgg {
			sb.WriteString(e.String())
			sb.WriteByte(',')
		}
	}
	sb.WriteByte('\x00')
	sb.WriteString(strings.Join(q.GroupBy, ","))
	sb.WriteByte('\x00')
	if q.Filter != nil {
		sb.WriteString(pql.CanonicalPredicate(q.Filter).String())
	}
	return sb.String()
}

// executeSegmentCached wraps ExecuteSegment with the partial-aggregate
// cache. Cached intermediates replay the original execution verbatim —
// stats included — so a warm segment is indistinguishable from a cold one
// in the response. A hit decodes into an Intermediate that is the caller's
// alone to Merge into and Finalize; a miss returns what it computed and, on
// the key's second sighting, leaves an encoded copy behind. The doorkeeper is
// asked before the encode, so a key seen once costs neither the encode nor
// any heap: this tier only sees what the broker's result tier missed, and
// most of that (all-distinct streams, a dashboard's first request) never
// comes back. Only clean completions are stored: errored executions must
// re-run. Bytes that no longer decode are a miss whose Put
// replaces them at once (a resident key passes the doorkeeper), and a result
// the layout cannot carry is answered and simply not stored.
func (e *Engine) executeSegmentCached(ctx context.Context, is IndexedSegment, q *pql.Query, key string, tableSchema *segment.Schema) (*Intermediate, error) {
	cache := e.AggCache
	if cache == nil || !aggCacheable(q, is) {
		return ExecuteSegment(ctx, is, q, tableSchema, e.Options)
	}
	scope := is.Seg.Name()
	if v, ok := cache.Get(scope, q.Table, key); ok {
		b, _ := v.([]byte)
		if res, err := DecodeIntermediate(b); err == nil {
			return res, nil
		}
	}
	res, err := ExecuteSegment(ctx, is, q, tableSchema, e.Options)
	if err != nil {
		return res, err
	}
	if e.afterMiss != nil {
		e.afterMiss(res)
	}
	if !cache.Admit(scope, q.Table, key) {
		return res, nil
	}
	if b, err := EncodeIntermediate(res); err == nil {
		cache.Put(scope, q.Table, key, b, int64(len(b)))
	}
	return res, nil
}

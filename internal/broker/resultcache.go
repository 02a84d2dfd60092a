package broker

import (
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"slices"

	"pinot/internal/helix"
	"pinot/internal/pql"
	"pinot/internal/query"
	"pinot/internal/table"
)

// Broker-side result cache: merged immutable-portion results keyed on
// (canonical PQL, tenant, routing version vector), scoped per resource.
// Invalidation is precise, never time-based — the version vector changes
// whenever the external view or segment metadata does, and external-view
// watches additionally drop a resource's entries eagerly. Consuming
// segments are excluded from cacheable coverage (Broker.plan), so a hit
// merges the cached offline/immutable portion with a live scatter over the
// still-moving remainder.

// cachedGather is one stored result-cache entry: the merged intermediate of
// a subquery's immutable portion, as its encoded bytes (query/wire.go) at
// exactly their length, plus the scatter counts that produced it. Only
// complete outcomes are stored (see gather.complete), so a replay is
// indistinguishable from re-contacting the same servers — stats included —
// except for the Stats.ResultCacheHit marker.
type cachedGather struct {
	encoded   []byte
	queried   int
	responded int
}

// replay materializes the entry as a fresh gather outcome: the bytes decode
// into an intermediate no one else holds (merges downstream mutate their
// receiver), flagged as a cache hit — the single permitted divergence from a
// cold response. ok is false when the bytes no longer decode; the caller then
// scatters as on a miss and its Put replaces the entry.
func (e *cachedGather) replay() (hit gather, ok bool) {
	res, err := query.DecodeIntermediate(e.encoded)
	if err != nil {
		return gather{}, false
	}
	res.Stats.ResultCacheHit = true
	return gather{result: res, queried: e.queried, responded: e.responded}, true
}

// complete reports whether a portion's outcome may be cached: every group
// answered, no response carried an exception, and any server-level failure
// was masked by a retry or hedge.
func (p gather) complete() bool {
	if p.responded != p.queried || len(p.respExcs) > 0 {
		return false
	}
	for _, e := range p.srvExcs {
		if !e.Recovered {
			return false
		}
	}
	return true
}

// resultCacheKey renders the cache key for one rewritten subquery. The
// routing version pins the exact data the answer derives from, the tenant
// isolates tenants from each other's entries, and the canonical PQL makes
// commuted-but-equivalent filters collide on one entry.
func resultCacheKey(rs *routingState, tenant string, q *pql.Query) string {
	return rs.version + "\x00" + tenant + "\x00" + q.CanonicalString()
}

// routingVersion digests a routing snapshot into the version-vector half
// of every result-cache key: the external view's store version (bumped by
// the metadata store on every write) plus an FNV-1a hash over the sorted
// segment set, each replica's state, and the metadata fields that change
// when a segment's content does (CRC for refresh/replace, status and end
// offset for realtime completion). Segment metadata can move without an
// external-view write — the hash catches what the store version alone
// would miss.
func routingVersion(storeVersion int, ev *helix.ExternalView, metas map[string]*table.SegmentMeta) string {
	h := fnv.New64a()
	for _, seg := range slices.Sorted(maps.Keys(ev.Partitions)) {
		io.WriteString(h, seg)
		replicas := ev.Partitions[seg]
		for _, inst := range slices.Sorted(maps.Keys(replicas)) {
			fmt.Fprintf(h, "|%s=%s", inst, replicas[inst])
		}
		if m := metas[seg]; m != nil {
			fmt.Fprintf(h, "|%d|%s|%d", m.CRC, m.Status, m.EndOffset)
		}
		io.WriteString(h, "\n")
	}
	return fmt.Sprintf("%d:%016x", storeVersion, h.Sum64())
}

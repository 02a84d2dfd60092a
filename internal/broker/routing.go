// Package broker implements the Pinot broker (paper 3.2 and 4.4): it routes
// queries to servers, merges partial responses, rewrites hybrid-table
// queries around the offline/realtime time boundary, and maintains routing
// tables under three strategies — balanced, large-cluster random-greedy
// (paper Algorithms 1 and 2), and partition-aware.
package broker

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"

	"pinot/internal/helix"
	"pinot/internal/table"
	"pinot/internal/zkmeta"
)

// Strategy selects how routing tables are generated.
type Strategy string

// Routing strategies (paper section 4.4).
const (
	// StrategyBalanced spreads a table's segments evenly across all
	// servers hosting them; every server is contacted per query.
	StrategyBalanced Strategy = "balanced"
	// StrategyLargeCluster generates many random-greedy routing tables
	// touching at most TargetServers servers each and keeps the ones
	// with the lowest per-server segment-count variance.
	StrategyLargeCluster Strategy = "largeCluster"
)

// RoutingTable maps server instance → the segments it must process for one
// query.
type RoutingTable map[string][]string

// SegmentCount returns the number of segments covered.
func (rt RoutingTable) SegmentCount() int {
	n := 0
	for _, segs := range rt {
		n += len(segs)
	}
	return n
}

// variance of per-server segment counts — the fitness metric of Algorithm 2
// ("empirical testing has shown that the variance of the number of segments
// assigned per server works well").
func (rt RoutingTable) variance() float64 {
	if len(rt) == 0 {
		return 0
	}
	var sum float64
	for _, segs := range rt {
		sum += float64(len(segs))
	}
	mean := sum / float64(len(rt))
	var v float64
	for _, segs := range rt {
		d := float64(len(segs)) - mean
		v += d * d
	}
	return v / float64(len(rt))
}

// segmentInstances is the SI map of Algorithm 1: segment → serving
// instances.
type segmentInstances map[string][]string

// instanceSegments is the IS map: instance → hosted segments.
func (si segmentInstances) invert() map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for seg, insts := range si {
		for _, inst := range insts {
			if out[inst] == nil {
				out[inst] = map[string]bool{}
			}
			out[inst][seg] = true
		}
	}
	return out
}

// generateBalanced builds the default routing table: every segment assigned
// to its least-loaded replica, so all servers share the work evenly.
func generateBalanced(si segmentInstances, rnd *rand.Rand) (RoutingTable, error) {
	load := map[string]int{}
	rt := RoutingTable{}
	for _, seg := range slices.Sorted(maps.Keys(si)) {
		insts := si[seg]
		if len(insts) == 0 {
			return nil, fmt.Errorf("broker: segment %s has no available replica", seg)
		}
		best := insts[rnd.Intn(len(insts))]
		for _, inst := range insts {
			if load[inst] < load[best] {
				best = inst
			}
		}
		rt[best] = append(rt[best], seg)
		load[best]++
	}
	return rt, nil
}

// generateRoutingTable is paper Algorithm 1: pick T random instances, add
// instances until every segment is covered, then assign each segment to a
// replica chosen with load-aware weighting, processing segments with the
// fewest candidate instances first.
func generateRoutingTable(si segmentInstances, target int, rnd *rand.Rand) (RoutingTable, error) {
	is := si.invert()
	instances := slices.Sorted(maps.Keys(is))

	orphan := map[string]bool{}
	for seg := range si {
		orphan[seg] = true
	}
	used := map[string]bool{}
	addInstance := func(inst string) {
		if used[inst] {
			return
		}
		used[inst] = true
		for seg := range is[inst] {
			delete(orphan, seg)
		}
	}
	if len(instances) <= target {
		for _, inst := range instances {
			addInstance(inst)
		}
	} else {
		for len(used) < target {
			addInstance(instances[rnd.Intn(len(instances))])
		}
		// Cover orphan segments by adding one of their replicas. Orphans
		// are processed in sorted order so the table is a pure function of
		// the generator state — map iteration order must not leak in.
		for len(orphan) > 0 {
			seg := minKey(orphan)
			replicas := si[seg]
			if len(replicas) == 0 {
				return nil, fmt.Errorf("broker: segment %s has no available replica", seg)
			}
			addInstance(replicas[rnd.Intn(len(replicas))])
		}
	}
	if len(orphan) > 0 {
		return nil, fmt.Errorf("broker: %d segments uncovered", len(orphan))
	}

	// Queue of segments in ascending order of usable-instance count.
	type segChoice struct {
		seg   string
		insts []string
	}
	queue := make([]segChoice, 0, len(si))
	for seg, insts := range si {
		var usable []string
		for _, inst := range insts {
			if used[inst] {
				usable = append(usable, inst)
			}
		}
		if len(usable) == 0 {
			return nil, fmt.Errorf("broker: segment %s lost all replicas", seg)
		}
		sort.Strings(usable)
		queue = append(queue, segChoice{seg, usable})
	}
	sort.Slice(queue, func(i, j int) bool {
		if len(queue[i].insts) != len(queue[j].insts) {
			return len(queue[i].insts) < len(queue[j].insts)
		}
		return queue[i].seg < queue[j].seg
	})

	// PickWeightedRandomReplica: weight inversely to current load so the
	// result stays balanced.
	load := map[string]int{}
	rt := RoutingTable{}
	for _, sc := range queue {
		maxLoad := 0
		for _, inst := range sc.insts {
			if load[inst] > maxLoad {
				maxLoad = load[inst]
			}
		}
		weights := make([]float64, len(sc.insts))
		var total float64
		for i, inst := range sc.insts {
			weights[i] = float64(maxLoad-load[inst]) + 1
			total += weights[i]
		}
		r := rnd.Float64() * total
		pick := sc.insts[len(sc.insts)-1]
		for i, w := range weights {
			if r < w {
				pick = sc.insts[i]
				break
			}
			r -= w
		}
		rt[pick] = append(rt[pick], sc.seg)
		load[pick]++
	}
	return rt, nil
}

func minKey(m map[string]bool) string {
	min := ""
	for k := range m {
		if min == "" || k < min {
			min = k
		}
	}
	return min
}

// filterRoutingTables is paper Algorithm 2: generate `candidates` routing
// tables and keep the `keep` tables with the lowest fitness metric.
func filterRoutingTables(si segmentInstances, target, keep, candidates int, rnd *rand.Rand) ([]RoutingTable, error) {
	if keep <= 0 {
		keep = 1
	}
	if candidates < keep {
		candidates = keep
	}
	type scored struct {
		rt RoutingTable
		m  float64
	}
	heap := make([]scored, 0, keep)
	worst := func() int {
		wi := 0
		for i := 1; i < len(heap); i++ {
			if heap[i].m > heap[wi].m {
				wi = i
			}
		}
		return wi
	}
	for i := 0; i < candidates; i++ {
		rt, err := generateRoutingTable(si, target, rnd)
		if err != nil {
			return nil, err
		}
		s := scored{rt, rt.variance()}
		if len(heap) < keep {
			heap = append(heap, s)
			continue
		}
		if wi := worst(); s.m <= heap[wi].m {
			heap[wi] = s
		}
	}
	out := make([]RoutingTable, len(heap))
	for i, s := range heap {
		out[i] = s.rt
	}
	return out, nil
}

// routingState is one resource's watched snapshot: its table config and the
// routing built from its external view and segment metadata; a nil cfg
// records that the resource does not exist. Never changed once built.
type routingState struct {
	resource string
	cfg      *table.Config
	tables   []RoutingTable
	segments segmentInstances
	// version is this routing snapshot's identity: the external view's
	// store version plus a digest over the segment set, per-replica states
	// and the cached segment metadata (CRC, status, stream end offset). The
	// broker result cache keys on it, so any cluster transition that could
	// change a query's answer also changes every affected cache key — the
	// precise-invalidation contract that lets the cache live without TTLs.
	version string
	// consuming marks segments with a replica in CONSUMING state. They are
	// excluded from result-cache coverage and always scattered live, so a
	// cache hit still reflects every row ingested since the entry was
	// stored.
	consuming map[string]bool
	// segMeta caches ZK segment metadata (time range, partition, doc
	// count) so broker-side pruning never touches segment data. Entries
	// refresh with the routing state on external-view changes.
	segMeta map[string]*table.SegmentMeta
	// boundary splits a hybrid table at the max MaxTime of the DONE segments
	// its offline half routes to (offline < boundary <= realtime, paper
	// Figure 6). A DONE segment not yet online must not move it, or rows past
	// the old boundary would be served by neither half.
	boundary    int64
	hasBoundary bool
}

// exists reports whether rs is the snapshot of a resource that exists.
func (rs *routingState) exists() bool { return rs != nil && rs.cfg != nil }

// pick returns a random pre-generated routing table (paper 3.3.3 step 2: "a
// routing table for that particular table is picked at random").
func (rs *routingState) pick(rnd *rand.Rand) RoutingTable {
	if len(rs.tables) == 0 {
		return nil
	}
	return rs.tables[rnd.Intn(len(rs.tables))]
}

// buildRoutingState builds a resource's snapshot from its znodes' bytes: the
// table config (nil: no such resource), the external view and its store
// version, and the segment metadata. The znodes are a trust boundary: any
// bytes give a state or an error.
func (b *Broker) buildRoutingState(resource string, cfgData, evData []byte, evVersion int, metaData [][]byte) (*routingState, error) {
	rs := &routingState{resource: resource}
	if cfgData == nil {
		return rs, nil
	}
	if err := json.Unmarshal(cfgData, &rs.cfg); err != nil {
		return nil, fmt.Errorf("broker: %s: table config: %w", resource, err)
	}
	if rs.cfg == nil || rs.cfg.Schema == nil {
		return nil, fmt.Errorf("broker: %s: table config has no schema", resource)
	}
	ev := &helix.ExternalView{}
	if len(evData) > 0 {
		if err := json.Unmarshal(evData, ev); err != nil {
			return nil, fmt.Errorf("broker: %s: external view: %w", resource, err)
		}
	}
	rs.segments, rs.consuming = segmentInstances{}, map[string]bool{}
	for seg, replicas := range ev.Partitions {
		committed := len(ev.InstancesFor(seg, helix.StateOnline)) > 0
		for inst, state := range replicas {
			// Online and consuming replicas both serve, but a replica
			// still consuming a segment another one holds online may
			// lag that copy: a committed segment is served online only.
			if state == helix.StateOnline || state == helix.StateConsuming && !committed {
				rs.segments[seg] = append(rs.segments[seg], inst)
			}
			if state == helix.StateConsuming {
				rs.consuming[seg] = true
			}
		}
	}
	var err error
	b.rndMu.Lock()
	switch b.cfg.Strategy {
	case StrategyLargeCluster:
		// Algorithm 2 generates G = 10·C candidate tables and keeps the C best.
		rs.tables, err = filterRoutingTables(rs.segments, b.cfg.TargetServers, routingTables, 10*routingTables, b.rnd)
	default:
		var rt RoutingTable
		rt, err = generateBalanced(rs.segments, b.rnd)
		rs.tables = []RoutingTable{rt}
	}
	b.rndMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("broker: could not build routing table for %s: %w", resource, err)
	}
	rs.segMeta = make(map[string]*table.SegmentMeta, len(metaData))
	for _, data := range metaData {
		m, err := table.UnmarshalSegmentMeta(data)
		if err != nil {
			return nil, fmt.Errorf("broker: %s: segment metadata: %w", resource, err)
		}
		rs.segMeta[m.Name] = m
	}
	for seg := range rs.segments {
		if m := rs.segMeta[seg]; m != nil && m.Status == table.StatusDone && (!rs.hasBoundary || m.MaxTime > rs.boundary) {
			rs.boundary, rs.hasBoundary = m.MaxTime, true
		}
	}
	rs.version = routingVersion(evVersion, ev, rs.segMeta)
	return rs, nil
}

// readRoutingState watches, then reads, a resource's znodes and builds its
// snapshot from them. The view's data and version come from ONE Get: the
// version seeds result-cache keys, which must never pair one view with
// another's routing. A store error fails the read rather than plan on a
// guess (a hybrid query without its boundary double-counts).
func (b *Broker) readRoutingState(sess zkmeta.Client, resource string) (*routingState, error) {
	cfgPath, evPath := tableConfigPath(b.cfg.Cluster, resource), helix.ExternalViewPath(b.cfg.Cluster, resource)
	b.watch(sess, resource, cfgPath)
	cfgData, _, err := sess.Get(cfgPath)
	if errors.Is(err, zkmeta.ErrNoNode) {
		return b.buildRoutingState(resource, nil, nil, 0, nil)
	}
	if err != nil {
		return nil, err
	}
	b.watch(sess, resource, evPath) // an absent resource's view is not watched
	evData, evVersion, err := sess.Get(evPath)
	if err != nil && !errors.Is(err, zkmeta.ErrNoNode) {
		return nil, err
	}
	base := helix.PropertyStorePath(b.cfg.Cluster, "SEGMENTS", resource)
	names, err := sess.Children(base)
	if err != nil && !errors.Is(err, zkmeta.ErrNoNode) {
		return nil, err
	}
	metas := make([][]byte, 0, len(names))
	for _, name := range names {
		data, _, err := sess.Get(base + "/" + name)
		if errors.Is(err, zkmeta.ErrNoNode) {
			continue // deleted since it was listed
		}
		if err != nil {
			return nil, err
		}
		metas = append(metas, data)
	}
	return b.buildRoutingState(resource, cfgData, evData, evVersion, metas)
}

func tableConfigPath(cluster, resource string) string {
	return helix.PropertyStorePath(cluster, "CONFIGS", "TABLE", resource)
}

// tableStates returns the snapshots of a table's offline and realtime
// halves, at least one of which exists. A name no table config carries is
// answered from the store and caches and watches nothing: client-supplied
// names never grow the watch set. Without a live metadata session the query
// fails fast: the snapshots of a lost session are never routed on.
func (b *Broker) tableStates(name string) (off, rt *routingState, err error) {
	if !b.sess.Live() {
		return nil, nil, errNoSession
	}
	sess := b.sess.Client()
	offline, realtime := table.ResourceName(name, table.Offline), table.ResourceName(name, table.Realtime)
	b.mu.Lock()
	off, rt = b.routing[offline], b.routing[realtime]
	b.mu.Unlock()
	known := off.exists() || rt.exists() ||
		sess.Exists(tableConfigPath(b.cfg.Cluster, offline)) || sess.Exists(tableConfigPath(b.cfg.Cluster, realtime))
	if known && off == nil {
		off, err = b.routingFor(sess, offline)
	}
	if known && rt == nil && err == nil {
		rt, err = b.routingFor(sess, realtime)
	}
	if err != nil {
		return nil, nil, err
	}
	if !off.exists() && !rt.exists() {
		return nil, nil, fmt.Errorf("broker: unknown table %q", name)
	}
	return off, rt, nil
}

// routingFor returns (building if needed) the snapshot of a resource.
func (b *Broker) routingFor(sess zkmeta.Client, resource string) (*routingState, error) {
	b.mu.Lock()
	rs, ok := b.routing[resource]
	epoch := b.routingEpoch
	b.mu.Unlock()
	if ok {
		return rs, nil
	}
	rs, err := b.readRoutingState(sess, resource)
	if err != nil {
		return nil, err
	}
	// Keep the state only if no invalidation ran while it was being built;
	// otherwise it answers this query and the next one rebuilds.
	b.mu.Lock()
	if b.routingEpoch == epoch {
		b.routing[resource] = rs
	}
	b.mu.Unlock()
	return rs, nil
}

// watch subscribes, once per path, to a znode the snapshot of resource is
// read from; its change invalidates the snapshot. Each znode is watched
// before it is read, so a change landing mid-build is not lost (paper 3.3.2:
// "brokers listen to changes to the cluster state and update their routing
// tables"). A session that is no longer current arms nothing: what it reads
// is not kept.
func (b *Broker) watch(sess zkmeta.Client, resource, path string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.watching[path] || sess != b.sess.Client() {
		return
	}
	events, _ := sess.Watch(path)
	b.watching[path] = true
	go func() {
		for range events {
			b.invalidate(resource)
		}
	}()
}

func (b *Broker) invalidateAll() {
	b.mu.Lock()
	b.routing = map[string]*routingState{}
	b.routingEpoch++
	b.mu.Unlock()
	if b.resultCache != nil {
		b.resultCache.InvalidateAll()
	}
}

func (b *Broker) invalidate(resource string) {
	b.mu.Lock()
	delete(b.routing, resource)
	b.routingEpoch++
	b.mu.Unlock()
	// The version-vector key already makes the dropped routing state's
	// entries unreachable; the eager scope invalidation reclaims their
	// memory and keeps the invalidation counters exact (once per entry —
	// a second watch firing finds the scope empty and counts nothing).
	if b.resultCache != nil {
		b.resultCache.InvalidateScope(resource)
	}
}

// restrict narrows a routing table to segments accepted by keep.
func restrict(rt RoutingTable, keep func(segment string) bool) RoutingTable {
	out := RoutingTable{}
	for inst, segs := range rt {
		var kept []string
		for _, s := range segs {
			if keep(s) {
				kept = append(kept, s)
			}
		}
		if len(kept) > 0 {
			out[inst] = kept
		}
	}
	return out
}

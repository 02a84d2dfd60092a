// Property tests for routing-table generation: whatever the cluster shape,
// replica placement or replica loss, a generated routing table must cover
// every segment exactly once and only ever assign a segment to an instance
// actually serving it; the balanced strategy must additionally keep
// per-server load within one segment under full replication.
package broker

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"pinot/internal/helix"
	"pinot/internal/metrics"
	"pinot/internal/segment"
	"pinot/internal/table"
)

// randomSI builds a random segment→instances map: nSegs segments spread over
// nInst servers with 1..maxReplicas replicas each.
func randomSI(rnd *rand.Rand, nSegs, nInst, maxReplicas int) segmentInstances {
	insts := make([]string, nInst)
	for i := range insts {
		insts[i] = fmt.Sprintf("server%d", i+1)
	}
	si := segmentInstances{}
	for s := 0; s < nSegs; s++ {
		seg := fmt.Sprintf("seg%03d", s)
		replicas := 1 + rnd.Intn(maxReplicas)
		if replicas > nInst {
			replicas = nInst
		}
		perm := rnd.Perm(nInst)
		for _, p := range perm[:replicas] {
			si[seg] = append(si[seg], insts[p])
		}
	}
	return si
}

// assertCoverage checks the two safety properties of any routing table: every
// segment of si appears exactly once, and only on an instance replicating it.
func assertCoverage(t *testing.T, label string, si segmentInstances, rt RoutingTable) {
	t.Helper()
	seen := map[string]string{}
	for inst, segs := range rt {
		for _, seg := range segs {
			if prev, dup := seen[seg]; dup {
				t.Fatalf("%s: segment %s assigned to both %s and %s", label, seg, prev, inst)
			}
			seen[seg] = inst
			legal := false
			for _, r := range si[seg] {
				if r == inst {
					legal = true
					break
				}
			}
			if !legal {
				t.Fatalf("%s: segment %s assigned to %s, which does not host it (replicas %v)", label, seg, inst, si[seg])
			}
		}
	}
	for seg := range si {
		if _, ok := seen[seg]; !ok {
			t.Fatalf("%s: segment %s not covered", label, seg)
		}
	}
	if len(seen) != len(si) {
		t.Fatalf("%s: covered %d segments, want %d", label, len(seen), len(si))
	}
}

func TestRoutingTablePropertiesRandomClusters(t *testing.T) {
	rnd := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 200; trial++ {
		nSegs := 1 + rnd.Intn(40)
		nInst := 1 + rnd.Intn(12)
		si := randomSI(rnd, nSegs, nInst, 3)
		label := fmt.Sprintf("trial %d (%d segs, %d servers)", trial, nSegs, nInst)

		rt, err := generateBalanced(si, rnd)
		if err != nil {
			t.Fatalf("%s: balanced: %v", label, err)
		}
		assertCoverage(t, label+"/balanced", si, rt)

		target := 1 + rnd.Intn(nInst)
		tables, err := filterRoutingTables(si, target, 3, 12, rnd)
		if err != nil {
			t.Fatalf("%s: largeCluster: %v", label, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s: largeCluster produced no tables", label)
		}
		for i, lrt := range tables {
			assertCoverage(t, fmt.Sprintf("%s/largeCluster[%d]", label, i), si, lrt)
		}
	}
}

// TestRoutingSurvivesReplicaLoss strips replicas down to one survivor per
// segment (simulating dead servers) and requires exactly-once coverage to
// hold on the remaining replicas — and a hard error, never silent data loss,
// when a segment has no replica left.
func TestRoutingSurvivesReplicaLoss(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		si := randomSI(rnd, 1+rnd.Intn(30), 2+rnd.Intn(8), 3)
		label := fmt.Sprintf("trial %d", trial)

		// Kill replicas at random, always sparing one per segment.
		lossy := segmentInstances{}
		for seg, insts := range si {
			survivors := append([]string(nil), insts...)
			rnd.Shuffle(len(survivors), func(i, j int) { survivors[i], survivors[j] = survivors[j], survivors[i] })
			keep := 1 + rnd.Intn(len(survivors))
			lossy[seg] = survivors[:keep]
		}

		rt, err := generateBalanced(lossy, rnd)
		if err != nil {
			t.Fatalf("%s: balanced under loss: %v", label, err)
		}
		assertCoverage(t, label+"/balanced-loss", lossy, rt)

		tables, err := filterRoutingTables(lossy, 1+rnd.Intn(4), 2, 8, rnd)
		if err != nil {
			t.Fatalf("%s: largeCluster under loss: %v", label, err)
		}
		for i, lrt := range tables {
			assertCoverage(t, fmt.Sprintf("%s/largeCluster-loss[%d]", label, i), lossy, lrt)
		}

		// Total loss of one segment's replicas must fail loudly.
		dead := segmentInstances{}
		for seg, insts := range lossy {
			dead[seg] = insts
		}
		dead["seg000"] = nil
		if _, err := generateBalanced(dead, rnd); err == nil {
			t.Fatalf("%s: balanced accepted a segment with zero replicas", label)
		}
		if _, err := filterRoutingTables(dead, 2, 2, 4, rnd); err == nil {
			t.Fatalf("%s: largeCluster accepted a segment with zero replicas", label)
		}
	}
}

// TestBalancedStrategyLoadSpread: under full replication (every server hosts
// every segment) the balanced strategy must spread load within one segment
// between the most- and least-loaded servers.
func TestBalancedStrategyLoadSpread(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		nInst := 2 + rnd.Intn(10)
		nSegs := nInst + rnd.Intn(50)
		insts := make([]string, nInst)
		for i := range insts {
			insts[i] = fmt.Sprintf("server%d", i+1)
		}
		si := segmentInstances{}
		for s := 0; s < nSegs; s++ {
			si[fmt.Sprintf("seg%03d", s)] = insts
		}
		rt, err := generateBalanced(si, rnd)
		if err != nil {
			t.Fatal(err)
		}
		assertCoverage(t, fmt.Sprintf("trial %d", trial), si, rt)
		min, max := nSegs, 0
		for _, inst := range insts {
			n := len(rt[inst])
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if max-min > 1 {
			t.Fatalf("trial %d: load spread %d..%d over %d servers / %d segments", trial, min, max, nInst, nSegs)
		}
	}
}

// FuzzRoutingState builds snapshots from arbitrary znode bytes — a table
// config, an external view and segment metadata records (NUL-separated) —
// under either strategy. Any input gives a state or an error, never a panic.
// A built state routes every ONLINE/CONSUMING segment exactly once in every
// routing table, and its boundary is the max MaxTime over the routed DONE
// segments.
func FuzzRoutingState(f *testing.F) {
	schema, err := segment.NewSchema("ev", []segment.FieldSpec{
		{Name: "m", Type: segment.TypeLong, Kind: segment.Metric, SingleValue: true},
		{Name: "t", Type: segment.TypeLong, Kind: segment.Time, SingleValue: true},
	})
	if err != nil {
		f.Fatal(err)
	}
	cfg, _ := json.Marshal(&table.Config{Name: "ev", Type: table.Offline, Schema: schema, Replicas: 2})
	ev, _ := json.Marshal(&helix.ExternalView{Resource: "ev_OFFLINE", Partitions: map[string]map[string]string{
		"s0": {"a": helix.StateOnline, "b": helix.StateOffline},
		"s1": {"a": helix.StateOnline, "b": helix.StateConsuming},
		"s2": {"b": helix.StateError},
	}})
	var metas [][]byte
	for _, m := range []table.SegmentMeta{
		{Name: "s0", Status: table.StatusDone, MaxTime: 100},
		{Name: "s1", Status: table.StatusInProgress, MaxTime: 300},
		{Name: "s2", Status: table.StatusDone, MaxTime: 400}, // in the view, not routed
		{Name: "s3", Status: table.StatusDone, MaxTime: 500}, // not yet in the view
	} {
		metas = append(metas, m.Marshal())
	}
	f.Add(cfg, ev, 3, bytes.Join(metas, []byte{0}), false)
	f.Add(cfg, ev, 3, bytes.Join(metas, []byte{0}), true)
	f.Add(cfg, []byte(nil), 0, []byte(nil), false)
	f.Add([]byte(`{"schema":null}`), ev, 1, metas[0], true)
	brokers := map[bool]*Broker{}
	for _, large := range []bool{false, true} {
		strategy := StrategyBalanced
		if large {
			strategy = StrategyLargeCluster
		}
		brokers[large] = New(Config{Strategy: strategy, Seed: 1, DisableResultCache: true, Metrics: metrics.NewRegistry()}, nil, nil)
	}
	f.Fuzz(func(t *testing.T, cfgData, evData []byte, evVersion int, metaData []byte, large bool) {
		var metas [][]byte
		if len(metaData) > 0 {
			metas = bytes.Split(metaData, []byte{0})
		}
		rs, err := brokers[large].buildRoutingState("ev_OFFLINE", cfgData, evData, evVersion, metas)
		if err != nil || !rs.exists() {
			return
		}
		var view helix.ExternalView
		if len(evData) > 0 {
			if err := json.Unmarshal(evData, &view); err != nil {
				t.Fatalf("the build accepted a view that does not decode: %v", err)
			}
		}
		routed := segmentInstances{} // a committed segment is served online only
		for seg, replicas := range view.Partitions {
			committed := len(view.InstancesFor(seg, helix.StateOnline)) > 0
			for inst, state := range replicas {
				if state == helix.StateOnline || state == helix.StateConsuming && !committed {
					routed[seg] = append(routed[seg], inst)
				}
			}
		}
		if len(rs.tables) == 0 {
			t.Fatal("a built state has no routing table")
		}
		for i, rt := range rs.tables {
			assertCoverage(t, fmt.Sprintf("table %d", i), routed, rt)
		}
		byName := map[string]*table.SegmentMeta{}
		for _, data := range metas {
			m, err := table.UnmarshalSegmentMeta(data)
			if err != nil {
				t.Fatalf("the build accepted metadata that does not decode: %v", err)
			}
			byName[m.Name] = m
		}
		attained := false
		for seg := range routed {
			m := byName[seg]
			if m == nil || m.Status != table.StatusDone {
				continue
			}
			if !rs.hasBoundary || m.MaxTime > rs.boundary {
				t.Fatalf("routed DONE segment %q ends at %d, past the boundary %d (set: %v)", seg, m.MaxTime, rs.boundary, rs.hasBoundary)
			}
			attained = attained || m.MaxTime == rs.boundary
		}
		if attained != rs.hasBoundary {
			t.Fatalf("boundary %d (set: %v) is no routed DONE segment's max time", rs.boundary, rs.hasBoundary)
		}
	})
}

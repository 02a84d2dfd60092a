package broker

import (
	"fmt"
	"math/rand"
	"testing"
)

// makeSI builds a segment→instances map: numSegments segments spread over
// numInstances servers with `replicas` copies each, round-robin.
func makeSI(numSegments, numInstances, replicas int) segmentInstances {
	si := segmentInstances{}
	for s := 0; s < numSegments; s++ {
		var insts []string
		for r := 0; r < replicas; r++ {
			insts = append(insts, fmt.Sprintf("server%d", (s+r)%numInstances))
		}
		si[fmt.Sprintf("seg%d", s)] = insts
	}
	return si
}

// coverage verifies a routing table covers exactly the segment universe with
// valid placements.
func assertCovers(t *testing.T, rt RoutingTable, si segmentInstances) {
	t.Helper()
	seen := map[string]int{}
	for inst, segs := range rt {
		for _, seg := range segs {
			seen[seg]++
			ok := false
			for _, replica := range si[seg] {
				if replica == inst {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("segment %s routed to non-replica %s", seg, inst)
			}
		}
	}
	if len(seen) != len(si) {
		t.Fatalf("covered %d segments, want %d", len(seen), len(si))
	}
	for seg, n := range seen {
		if n != 1 {
			t.Fatalf("segment %s routed %d times", seg, n)
		}
	}
}

func TestGenerateBalancedCoversAndBalances(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	si := makeSI(60, 6, 3)
	rt, err := generateBalanced(si, rnd)
	if err != nil {
		t.Fatal(err)
	}
	assertCovers(t, rt, si)
	// Balanced: all 6 servers used, each ~10 segments.
	if len(rt) != 6 {
		t.Fatalf("servers = %d", len(rt))
	}
	for inst, segs := range rt {
		if len(segs) < 7 || len(segs) > 13 {
			t.Fatalf("server %s has %d segments, badly balanced", inst, len(segs))
		}
	}
}

func TestGenerateBalancedNoReplica(t *testing.T) {
	si := segmentInstances{"lonely": nil}
	if _, err := generateBalanced(si, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("uncoverable universe accepted")
	}
}

func TestAlgorithm1SmallClusterUsesAll(t *testing.T) {
	// With fewer instances than T, all instances are used (first branch
	// of Algorithm 1).
	rnd := rand.New(rand.NewSource(2))
	si := makeSI(20, 3, 2)
	rt, err := generateRoutingTable(si, 8, rnd)
	if err != nil {
		t.Fatal(err)
	}
	assertCovers(t, rt, si)
}

func TestAlgorithm1LimitsServerCount(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	si := makeSI(200, 20, 3)
	for trial := 0; trial < 20; trial++ {
		rt, err := generateRoutingTable(si, 5, rnd)
		if err != nil {
			t.Fatal(err)
		}
		assertCovers(t, rt, si)
		// T random + possibly a few extras for orphan coverage; must be
		// far below the 20-server fleet.
		if len(rt) > 12 {
			t.Fatalf("trial %d: %d servers used, want ≪ 20", trial, len(rt))
		}
	}
}

func TestAlgorithm1CoversOrphans(t *testing.T) {
	// One segment lives only on a single instance: it must always be
	// covered even if that instance is not among the T random picks.
	rnd := rand.New(rand.NewSource(4))
	si := makeSI(50, 10, 2)
	si["special"] = []string{"server9"}
	for trial := 0; trial < 30; trial++ {
		rt, err := generateRoutingTable(si, 2, rnd)
		if err != nil {
			t.Fatal(err)
		}
		assertCovers(t, rt, si)
	}
}

func TestAlgorithm2KeepsLowVarianceTables(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	si := makeSI(120, 12, 3)
	kept, err := filterRoutingTables(si, 4, 5, 60, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 5 {
		t.Fatalf("kept %d tables", len(kept))
	}
	var keptMax float64
	for _, rt := range kept {
		assertCovers(t, rt, si)
		if v := rt.variance(); v > keptMax {
			keptMax = v
		}
	}
	// The kept maximum variance must not exceed the typical variance of
	// unfiltered tables: sample fresh ones and compare against their
	// mean.
	var sum float64
	const samples = 40
	for i := 0; i < samples; i++ {
		rt, err := generateRoutingTable(si, 4, rnd)
		if err != nil {
			t.Fatal(err)
		}
		sum += rt.variance()
	}
	mean := sum / samples
	if keptMax > mean*1.5+1 {
		t.Fatalf("kept max variance %.2f vs unfiltered mean %.2f — filtering ineffective", keptMax, mean)
	}
}

func TestFilterRoutingTablesDefaults(t *testing.T) {
	rnd := rand.New(rand.NewSource(6))
	si := makeSI(10, 4, 2)
	kept, err := filterRoutingTables(si, 2, 0, 0, rnd)
	if err != nil || len(kept) != 1 {
		t.Fatalf("kept=%d err=%v", len(kept), err)
	}
}

func TestVariance(t *testing.T) {
	rt := RoutingTable{"a": {"s1", "s2"}, "b": {"s3", "s4"}}
	if v := rt.variance(); v != 0 {
		t.Fatalf("uniform variance = %v", v)
	}
	rt2 := RoutingTable{"a": {"s1", "s2", "s3", "s4"}, "b": nil}
	if v := rt2.variance(); v != 4 {
		t.Fatalf("variance = %v, want 4", v)
	}
	if (RoutingTable{}).variance() != 0 {
		t.Fatal("empty variance")
	}
	if rt.SegmentCount() != 4 {
		t.Fatal("segment count")
	}
}

func TestRestrict(t *testing.T) {
	rt := RoutingTable{"a": {"s1", "s2"}, "b": {"s3"}}
	out := restrict(rt, func(seg string) bool { return seg == "s2" })
	if len(out) != 1 || len(out["a"]) != 1 || out["a"][0] != "s2" {
		t.Fatalf("restricted = %v", out)
	}
}

func TestRoutingStatePick(t *testing.T) {
	rs := &routingState{}
	if rs.pick(rand.New(rand.NewSource(1))) != nil {
		t.Fatal("empty state returned a table")
	}
	rs.tables = []RoutingTable{{"a": {"s1"}}, {"b": {"s1"}}}
	seen := map[int]bool{}
	rnd := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		rt := rs.pick(rnd)
		if _, ok := rt["a"]; ok {
			seen[0] = true
		} else {
			seen[1] = true
		}
	}
	if !seen[0] || !seen[1] {
		t.Fatal("pick never rotated tables")
	}
}

package cluster

import (
	"context"
	"fmt"
	"testing"
	"time"

	"pinot/internal/broker"
)

// TestLargeClusterRoutingMitigatesStragglers validates the motivation for
// the large-cluster routing strategy (paper 4.4: "the larger the cluster,
// the more likely it is that a single host ... will slow down query
// processing"; the strategy "minimizes the number of hosts contacted ...
// this minimizes the adverse impact of any given misbehaving host"). With
// one slow server in a six-server fleet, balanced routing touches it on
// every query; large-cluster routing only on the fraction of routing
// tables that include it.
func TestLargeClusterRoutingMitigatesStragglers(t *testing.T) {
	build := func(strategy broker.Strategy) *Cluster {
		c, err := NewLocal(Options{
			Servers: 6,
			BrokerTemplate: broker.Config{
				Strategy:      strategy,
				TargetServers: 2,
				Seed:          11,
				// Straggler exposure is measured by which servers the
				// repeated query actually reaches.
				DisableResultCache: true,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Shutdown)
		if err := c.AddTable(offlineConfig(t, 3)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			if err := c.UploadSegment("events_OFFLINE", buildBlob(t, fmt.Sprintf("events_%d", i), i*10, 10, 100)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.WaitForOnline("events_OFFLINE", 12, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		// Server 1 becomes a straggler.
		c.Servers[0].InjectLatency(20 * time.Millisecond)
		return c
	}

	measure := func(c *Cluster) (slowQueries int, total time.Duration) {
		const n = 40
		for i := 0; i < n; i++ {
			start := time.Now()
			res, err := c.Execute(context.Background(), "SELECT count(*) FROM events")
			if err != nil {
				t.Fatal(err)
			}
			if res.Rows[0][0].(int64) != 120 {
				t.Fatalf("count = %v", res.Rows[0][0])
			}
			elapsed := time.Since(start)
			total += elapsed
			if elapsed > 15*time.Millisecond {
				slowQueries++
			}
		}
		return slowQueries, total
	}

	balanced := build(broker.StrategyBalanced)
	large := build(broker.StrategyLargeCluster)
	balancedSlow, balancedTotal := measure(balanced)
	largeSlow, largeTotal := measure(large)

	// Balanced routing contacts every server, so every query pays the
	// straggler tax.
	if balancedSlow < 35 {
		t.Fatalf("balanced: only %d/40 queries hit the straggler", balancedSlow)
	}
	// Large-cluster routing only uses the straggler when the randomly
	// picked routing table includes it.
	if largeSlow >= balancedSlow {
		t.Fatalf("large-cluster routing did not reduce straggler impact: %d vs %d slow queries", largeSlow, balancedSlow)
	}
	if largeTotal >= balancedTotal {
		t.Fatalf("large-cluster total latency %v >= balanced %v", largeTotal, balancedTotal)
	}
	t.Logf("balanced: %d/40 slow (total %v); large-cluster: %d/40 slow (total %v)",
		balancedSlow, balancedTotal, largeSlow, largeTotal)
}

// Full broker→server query benchmark with the cluster's metrics registry
// recording, as it always does (DESIGN.md "Observability").
package pinot

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"pinot/internal/cluster"
)

var (
	metricsBenchOnce sync.Once
	metricsBenchC    *cluster.Cluster
	metricsBenchErr  error
)

func metricsBenchCluster(b *testing.B) *cluster.Cluster {
	b.Helper()
	metricsBenchOnce.Do(func() {
		c, err := cluster.NewLocal(cluster.Options{Servers: 2})
		if err != nil {
			metricsBenchErr = err
			return
		}
		schema, err := NewSchema("mbench", []FieldSpec{
			{Name: "country", Type: TypeString, Kind: Dimension, SingleValue: true},
			{Name: "clicks", Type: TypeLong, Kind: Metric, SingleValue: true},
			{Name: "day", Type: TypeLong, Kind: Time, SingleValue: true, TimeUnit: "DAYS"},
		})
		if err != nil {
			metricsBenchErr = err
			return
		}
		if err := c.AddTable(&TableConfig{Name: "mbench", Type: Offline, Schema: schema, Replicas: 2}); err != nil {
			metricsBenchErr = err
			return
		}
		countries := []string{"us", "de", "fr", "jp"}
		for si := 0; si < 4; si++ {
			rows := make([]Row, 0, 2000)
			for r := 0; r < 2000; r++ {
				rows = append(rows, Row{countries[r%4], int64(r), int64(17000 + r%30)})
			}
			blob, err := BuildSegmentBlob("mbench", fmt.Sprintf("mbench_%d", si), schema, IndexConfig{}, rows, nil)
			if err != nil {
				metricsBenchErr = err
				return
			}
			if err := c.UploadSegment("mbench_OFFLINE", blob); err != nil {
				metricsBenchErr = err
				return
			}
		}
		if err := c.WaitForOnline("mbench_OFFLINE", 4, 10*time.Second); err != nil {
			metricsBenchErr = err
			return
		}
		metricsBenchC = c
	})
	if metricsBenchErr != nil {
		b.Fatal(metricsBenchErr)
	}
	return metricsBenchC
}

const metricsBenchQ = "SELECT count(*), sum(clicks) FROM mbench WHERE country = 'us' GROUP BY day"

func BenchmarkQueryMetrics(b *testing.B) {
	c := metricsBenchCluster(b)
	ctx := context.Background()
	// Warm the routing table, scheduler and allocator caches before timing.
	for i := 0; i < 50; i++ {
		if _, err := c.Execute(ctx, metricsBenchQ); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Execute(ctx, metricsBenchQ); err != nil {
			b.Fatal(err)
		}
	}
}

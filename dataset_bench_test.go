package conflictres

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"
)

// BenchmarkResolveDataset measures end-to-end dataset throughput — CSV
// parse, group-by-key, sharded resolution, CSV write — at several shard
// counts and in two series: pooled (per-shard pipelines reuse the encoding
// skeleton and arena solver) and unpooled (per-entity construction, the
// pre-pipeline baseline). shards=1 is the sequential baseline. Entities are
// 3-tuple Edith instances sharing one compiled rule set, so the numbers
// isolate the pipeline and solver cost rather than rule parsing.
func BenchmarkResolveDataset(b *testing.B) {
	rules := batchRules(b)
	const entities = 48
	input := datasetCSV(b, entities)
	rows := int64(entities * 3)
	widths := []int{1, 2, runtime.GOMAXPROCS(0)}
	if runtime.GOMAXPROCS(0) <= 2 {
		widths = []int{1, 2}
	}
	for _, mode := range []struct {
		name     string
		unpooled bool
	}{{"pooled", false}, {"unpooled", true}} {
		for _, w := range widths {
			b.Run(fmt.Sprintf("%s/shards=%d", mode.name, w), func(b *testing.B) {
				b.SetBytes(int64(len(input)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					stats, err := ResolveDataset(context.Background(), rules,
						bytes.NewReader(input), io.Discard, DatasetOptions{
							KeyColumns: []string{"entity"},
							Shards:     w,
							Sorted:     true,
							unpooled:   mode.unpooled,
						})
					if err != nil {
						b.Fatal(err)
					}
					if stats.Resolved != entities {
						b.Fatalf("resolved = %d", stats.Resolved)
					}
				}
				b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
				b.ReportMetric(float64(entities)*float64(b.N)/b.Elapsed().Seconds(), "entities/s")
			})
		}
	}
}

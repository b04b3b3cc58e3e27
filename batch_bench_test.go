package conflictres

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkResolveBatch measures batch throughput at several worker-pool
// widths over one compiled rule set, in two series: pooled (the default —
// per-worker pipelines reuse the encoding skeleton and arena solver across
// entities) and unpooled (every entity builds its encoding and solver from
// zero — the pre-pipeline baseline). The workers=1 cases are the sequential
// baselines; allocs/op divided by the entity count gives allocs/entity.
func BenchmarkResolveBatch(b *testing.B) {
	rs := batchRules(b)
	instances := batchInstances(rs.Schema(), 64)
	widths := []int{1, 2, runtime.GOMAXPROCS(0)}
	if runtime.GOMAXPROCS(0) <= 2 {
		widths = []int{1, 2}
	}
	for _, mode := range []struct {
		name     string
		unpooled bool
	}{{"pooled", false}, {"unpooled", true}} {
		for _, w := range widths {
			b.Run(fmt.Sprintf("%s/workers=%d", mode.name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					br, err := ResolveBatch(rs, instances, BatchOptions{
						Workers: w,
						Options: Options{unpooled: mode.unpooled},
					})
					if err != nil {
						b.Fatal(err)
					}
					if br.Resolved != len(instances) {
						b.Fatalf("Resolved = %d", br.Resolved)
					}
				}
				b.ReportMetric(float64(len(instances)*b.N)/b.Elapsed().Seconds(), "entities/s")
			})
		}
	}
}

// BenchmarkResolveBatchWeighted prices provenance: the BenchmarkResolveBatch
// workload with every tuple source-tagged and a non-uniform trust chain
// active, so each entity pays the weighted picker (trust fill over the SAT
// result) on top of ordinary resolution. Compare the workers=N series here
// against the pooled series above to read the overhead.
func BenchmarkResolveBatchWeighted(b *testing.B) {
	currency, cfds := batchRuleTexts()
	rs, err := CompileRulesTrust(batchSchema(), currency, cfds,
		[]string{`"hq" > "mirror" > "scrape"`})
	if err != nil {
		b.Fatal(err)
	}
	instances := batchInstances(rs.Schema(), 64)
	srcs := []string{"scrape", "mirror", "hq"}
	for _, in := range instances {
		for i, id := range in.TupleIDs() {
			in.SetSource(id, srcs[i%len(srcs)])
		}
	}
	widths := []int{1, 2, runtime.GOMAXPROCS(0)}
	if runtime.GOMAXPROCS(0) <= 2 {
		widths = []int{1, 2}
	}
	for _, w := range widths {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				br, err := ResolveBatch(rs, instances, BatchOptions{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if br.Resolved != len(instances) {
					b.Fatalf("Resolved = %d", br.Resolved)
				}
			}
			b.ReportMetric(float64(len(instances)*b.N)/b.Elapsed().Seconds(), "entities/s")
		})
	}
}

// BenchmarkSpecConstruction contrasts per-entity constraint re-parsing
// (NewSpec) with binding against a compiled rule set (NewSpecFromRules).
func BenchmarkSpecConstruction(b *testing.B) {
	currency, cfds := batchRuleTexts()
	sch := batchSchema()
	in := batchInstance(sch, 0)
	b.Run("NewSpec/reparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := NewSpec(in, currency, cfds); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NewSpecFromRules/compiled", func(b *testing.B) {
		rs, err := CompileRules(sch, currency, cfds)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := NewSpecFromRules(in, rs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package encode

import (
	"runtime"
	"testing"

	"conflictres/internal/datagen"
)

// BenchmarkEncodeBulkMix compiles the fleet benchmark's bulk entity mix —
// Person rules with ACPool 24 and 6×8 chains, Zipf(1.5) sizes over 2–40
// tuples — through one Skeleton, the way a pooled resolve worker does. One
// op is one pass over the 128-entity mix; the per-entity metrics divide by
// the entity count. allocs/entity is the deterministic regression anchor;
// clauses/entity is a property of the formula and must not move under a
// pure speed-up. It moved once, on purpose, from 25,529 to about 650 when
// transitivity left the clause list for the CNF's order groups.
func BenchmarkEncodeBulkMix(b *testing.B) {
	ds := datagen.Person(datagen.PersonConfig{
		Entities: 128, MinTuples: 2, MaxTuples: 40, Seed: 7,
		Skew:   datagen.SkewZipf,
		ACPool: 24, StatusChains: 6, StatusChainLen: 8,
		JobChains: 6, JobChainLen: 8,
	})
	k := NewSkeleton(ds.Sigma, ds.Gamma, Options{})
	for _, ent := range ds.Entities { // warm the skeleton's storage
		k.Build(ent.Spec)
	}
	clauses := 0
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		for _, ent := range ds.Entities {
			clauses += len(k.Build(ent.Spec).CNF().Clauses)
		}
	}
	runtime.ReadMemStats(&after)
	b.StopTimer()
	n := float64(b.N * len(ds.Entities))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/entity")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/entity")
	b.ReportMetric(float64(clauses)/n, "clauses/entity")
}

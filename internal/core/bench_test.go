package core

import (
	"runtime"
	"testing"

	"conflictres/internal/datagen"
	"conflictres/internal/encode"
)

// BenchmarkPipelineBulkMix is the Go-level anchor for the fleet's bulk
// path: the 128-entity mix of encode's BenchmarkEncodeBulkMix (Person rules
// with ACPool 24 and 6×8 chains, Zipf(1.5) sizes over 2–40 tuples) through
// one pooled Pipeline — NewSession (skeleton Build plus CNF load),
// IsValid, DeduceOrder and TrueValues per entity, the way a pooled resolve
// worker serves a batch. One op is one pass over the mix; the per-entity
// metrics divide by the entity count. allocs/entity is the deterministic
// regression anchor; clauses/entity is what each session loaded.
func BenchmarkPipelineBulkMix(b *testing.B) {
	ds := datagen.Person(datagen.PersonConfig{
		Entities: 128, MinTuples: 2, MaxTuples: 40, Seed: 7,
		Skew:   datagen.SkewZipf,
		ACPool: 24, StatusChains: 6, StatusChainLen: 8,
		JobChains: 6, JobChainLen: 8,
	})
	p := NewPipeline(ds.Sigma, ds.Gamma, encode.Options{})
	pass := func() (clauses int) {
		for _, ent := range ds.Entities {
			s := p.NewSession(ent.Spec)
			s.IsValid()
			od, _ := s.DeduceOrder()
			TrueValues(s.Encoding(), od)
			clauses += s.Stats().ClausesLoaded
		}
		return clauses
	}
	pass() // warm the pipeline's storage
	clauses := 0
	var before, after runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		clauses += pass()
	}
	runtime.ReadMemStats(&after)
	b.StopTimer()
	n := float64(b.N * len(ds.Entities))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/entity")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/entity")
	b.ReportMetric(float64(clauses)/n, "clauses/entity")
}

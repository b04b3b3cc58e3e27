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
	benchPipeline(b, datagen.Person(datagen.PersonConfig{
		Entities: 128, MinTuples: 2, MaxTuples: 40, Seed: 7,
		Skew:   datagen.SkewZipf,
		ACPool: 24, StatusChains: 6, StatusChainLen: 8,
		JobChains: 6, JobChainLen: 8,
	}))
}

// BenchmarkPipelinePersonPaper is BenchmarkPipelineBulkMix under the
// paper's Person pools (|Σ| = 983, |Γ| = 1,000, as crfigures and
// `-scale paper` use them) over 64 entities of 2–30 tuples: the workload
// where rule-set size, not entity size, sets the cost.
func BenchmarkPipelinePersonPaper(b *testing.B) {
	benchPipeline(b, datagen.Person(datagen.PersonConfig{
		Entities: 64, MinTuples: 2, MaxTuples: 30, Seed: 7,
	}))
}

// benchPipeline resolves every entity of ds through one pooled Pipeline
// per op, after one warming pass, and reports per-entity time,
// allocations and loaded clauses.
func benchPipeline(b *testing.B, ds *datagen.Dataset) {
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

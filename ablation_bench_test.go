package conflictres

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// projection-deduplicating constraint instantiation, the full versus
// sparse transitivity encoding, and the incremental (assumption-based)
// MaxSAT checks behind Suggest.

import (
	"testing"

	"conflictres/internal/core"
	"conflictres/internal/encode"
)

// BenchmarkAblationEncodeProjection measures the default encoder, which
// groups tuples by each constraint's referenced-attribute projection.
func BenchmarkAblationEncodeProjection(b *testing.B) {
	benchSetup()
	for i := 0; i < b.N; i++ {
		encode.Build(benchBigPer.Spec, encode.Options{})
	}
}

// BenchmarkAblationTransitivityFull forces full cubic transitivity axioms on
// every attribute (a high cap).
func BenchmarkAblationTransitivityFull(b *testing.B) {
	benchSetup()
	opts := encode.Options{TransitivityCap: 1 << 20}
	enc := encode.Build(benchBigNBA.Spec, opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.IsValid(enc)
	}
}

// BenchmarkAblationTransitivitySparse forces the sparse fact-closure
// encoding on every attribute (cap 1).
func BenchmarkAblationTransitivitySparse(b *testing.B) {
	benchSetup()
	opts := encode.Options{TransitivityCap: 1}
	enc := encode.Build(benchBigNBA.Spec, opts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.IsValid(enc)
	}
}

// TestAblationEncodingsAgree pins the ablation correctness claim: both
// transitivity modes agree on validity and on deduced true values for the
// benchmark entities.
func TestAblationEncodingsAgree(t *testing.T) {
	benchSetup()
	for _, e := range benchNBA.Entities[:5] {
		full := encode.Build(e.Spec, encode.Options{TransitivityCap: 1 << 20})
		sparse := encode.Build(e.Spec, encode.Options{TransitivityCap: 1})
		vFull, _ := core.IsValid(full)
		vSparse, _ := core.IsValid(sparse)
		if vFull != vSparse {
			t.Fatalf("transitivity modes disagree on validity: %v vs %v", vFull, vSparse)
		}
		odF, _ := core.DeduceOrder(full)
		odS, _ := core.DeduceOrder(sparse)
		tvF := core.TrueValues(full, odF)
		tvS := core.TrueValues(sparse, odS)
		for a, v := range tvS {
			if w, ok := tvF[a]; ok && v.String() != w.String() {
				t.Fatalf("modes disagree on %s: %v vs %v", e.Spec.Schema().Name(a), v, w)
			}
		}
	}
}

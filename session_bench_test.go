// Benchmarks for the incremental resolution session engine: the multi-round
// suggest/confirm loop (validity → deduce → suggest → Se ⊕ Ot → repeat) per
// entity, session vs from-scratch. These two series are the perf contract
// the CI bench job tracks in BENCH_*.json.
package conflictres

import (
	"sync"
	"testing"

	"conflictres/internal/core"
	"conflictres/internal/datagen"
	"conflictres/internal/encode"
)

var (
	loopOnce     sync.Once
	loopEntities []*datagen.Entity
)

// resolveLoopEntities generates interactive-friendly Person entities:
// enough tuples for real conflicts, a constraint pool small enough that the
// encodings stay in the full-axiom (incrementally extensible) regime, and a
// CFD pool that does not blow the AC attribute past the transitivity cap.
func resolveLoopEntities() []*datagen.Entity {
	loopOnce.Do(func() {
		ds := datagen.Person(datagen.PersonConfig{
			Entities: 6, MinTuples: 3, MaxTuples: 8, Seed: 7,
			ACPool: 24, StatusChains: 6, StatusChainLen: 8,
			JobChains: 6, JobChainLen: 8,
		})
		loopEntities = ds.Entities
	})
	return loopEntities
}

func benchmarkResolveLoop(b *testing.B, opts core.Options) {
	entities := resolveLoopEntities()
	rounds := 0
	extends := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := entities[i%len(entities)]
		// One answer per round maximizes ⊕ Ot iterations — the paper's
		// interactive loop at its chattiest.
		out, err := core.Resolve(e.Spec, &core.SimulatedUser{Truth: e.Truth, MaxPerRound: 1}, opts)
		if err != nil {
			b.Fatal(err)
		}
		rounds += out.Rounds
		extends += out.Session.Extends
	}
	b.StopTimer()
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(extends)/float64(b.N), "extends/op")
}

// BenchmarkResolveLoopSession: every phase and round served by one
// incremental session per entity.
func BenchmarkResolveLoopSession(b *testing.B) {
	benchmarkResolveLoop(b, core.Options{})
}

// BenchmarkResolveLoopFromScratch: the pre-session baseline — re-encode the
// specification each round, fresh solver per phase.
func BenchmarkResolveLoopFromScratch(b *testing.B) {
	benchmarkResolveLoop(b, core.Options{FromScratch: true})
}

// BenchmarkResolveLoopSessionNaive / FromScratchNaive: the same loop with
// the exact per-variable deduction, where solver reuse matters most (one
// assumption query per variable per round).
func BenchmarkResolveLoopSessionNaive(b *testing.B) {
	benchmarkResolveLoop(b, core.Options{UseNaiveDeduce: true})
}

func BenchmarkResolveLoopFromScratchNaive(b *testing.B) {
	benchmarkResolveLoop(b, core.Options{FromScratch: true, UseNaiveDeduce: true})
}

// BenchmarkSessionLoop is the ResolveLoopSession conversation driven
// through the public Session: open, then Complete → Suggest → Apply one
// answer until the entity is complete.
func BenchmarkSessionLoop(b *testing.B) {
	entities := resolveLoopEntities()
	rounds := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := entities[i%len(entities)]
		sess, err := NewSession(&Spec{m: e.Spec})
		if err != nil {
			b.Fatal(err)
		}
		user := &core.SimulatedUser{Truth: e.Truth, MaxPerRound: 1}
		sch := e.Spec.Schema()
		for sess.Valid() && !sess.Complete() {
			sug, err := sess.Suggest()
			if err != nil {
				b.Fatal(err)
			}
			answers := make(map[string]Value)
			for a, v := range user.Answer(sug) {
				answers[sch.Name(a)] = v
			}
			if len(answers) == 0 {
				break
			}
			if err := sess.Apply(answers); err != nil {
				b.Fatal(err)
			}
		}
		rounds += sess.Result().Rounds
	}
	b.StopTimer()
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

// BenchmarkSessionValidityDeduce measures the non-interactive hot path the
// batch/dataset/server layers take per entity: validity plus deduction on
// one session (one load, one solve) vs two fresh solvers.
func BenchmarkSessionValidityDeduce(b *testing.B) {
	benchSetup()
	spec := benchBigNBA.Spec
	b.Run("session", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sess := core.NewSession(spec, encode.Options{})
			if ok, _ := sess.IsValid(); !ok {
				b.Fatal("bench entity must be valid")
			}
			od, _ := sess.DeduceOrder()
			core.TrueValues(sess.Encoding(), od)
		}
	})
	b.Run("fromscratch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc := encode.Build(spec, encode.Options{})
			if ok, _ := core.IsValid(enc); !ok {
				b.Fatal("bench entity must be valid")
			}
			od, _ := core.DeduceOrder(enc)
			core.TrueValues(enc, od)
		}
	})
}

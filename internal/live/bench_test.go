package live_test

import (
	"sync"
	"testing"

	"conflictres"
	"conflictres/internal/datagen"
	"conflictres/internal/reference"
	"conflictres/internal/relation"
)

// upsertWindow is how many single-row deltas each benchmark applies before
// resetting the entity to its base rows, so per-op cost stays bounded and
// the two series resolve identical entity states at every step.
const upsertWindow = 16

var (
	upsertOnce  sync.Once
	upsertRules *conflictres.RuleSet
	upsertBase  []conflictres.Tuple
	upsertDelta []conflictres.Tuple
)

// upsertWorkload builds the resolve-after-update workload: a Person entity
// (same shrunken constraint pool as the resolve-loop benchmarks, so the
// encoding stays in the incrementally extensible regime) plus a schedule of
// monotone single-row deltas — clones of the entity's first row with fresh
// kids counts, which touch no CFD left-hand side.
func upsertWorkload(b *testing.B) (*conflictres.RuleSet, []conflictres.Tuple, []conflictres.Tuple) {
	upsertOnce.Do(func() {
		ds := datagen.Person(datagen.PersonConfig{
			Entities: 1, MinTuples: 5, MaxTuples: 5, Seed: 7,
			ACPool: 24, StatusChains: 6, StatusChainLen: 8,
			JobChains: 6, JobChainLen: 8,
		})
		var err error
		cur := make([]string, len(ds.Sigma))
		for i, c := range ds.Sigma {
			cur[i] = c.Format(ds.Schema)
		}
		cfds := make([]string, len(ds.Gamma))
		for i, c := range ds.Gamma {
			cfds[i] = c.Format(ds.Schema)
		}
		upsertRules, err = conflictres.CompileRules(ds.Schema, cur, cfds)
		if err != nil {
			panic(err)
		}
		in := ds.Entities[0].Spec.TI.Inst
		for t := 0; t < in.Len(); t++ {
			upsertBase = append(upsertBase, in.Tuple(relation.TupleID(t)).Clone())
		}
		kids, _ := ds.Schema.Attr("kids")
		for i := 0; i < upsertWindow; i++ {
			row := upsertBase[0].Clone()
			row[kids] = relation.Int(int64(100 + i))
			upsertDelta = append(upsertDelta, row)
		}
	})
	return upsertRules, upsertBase, upsertDelta
}

// BenchmarkEntityUpsert measures resolve-after-update for monotone
// single-row deltas: the live path (persistent session, clause append,
// exact-fixpoint deduction) against re-resolving the accumulated rows from
// scratch after every delta. The ratio of the two is the headline number
// for the change-data-capture layer.
func BenchmarkEntityUpsert(b *testing.B) {
	rs, base, deltas := upsertWorkload(b)

	b.Run("extend", func(b *testing.B) {
		var ls *conflictres.LiveSession
		extends := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%upsertWindow == 0 {
				b.StopTimer()
				if ls != nil {
					ls.Close()
				}
				var err error
				ls, err = rs.NewLiveSession(base, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			extended, err := ls.Upsert([]conflictres.Tuple{deltas[i%upsertWindow]}, nil)
			if err != nil {
				b.Fatal(err)
			}
			if !extended {
				b.Fatal("monotone delta fell back to a rebuild")
			}
			extends++
		}
		b.StopTimer()
		if ls != nil {
			ls.Close()
		}
		b.ReportMetric(float64(extends)/float64(b.N), "extends/op")
	})

	b.Run("scratch", func(b *testing.B) {
		sch := rs.Schema()
		rows := make([]conflictres.Tuple, 0, len(base)+upsertWindow)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%upsertWindow == 0 {
				rows = append(rows[:0], base...)
			}
			rows = append(rows, deltas[i%upsertWindow])
			in := conflictres.NewInstance(sch)
			for _, r := range rows {
				in.MustAdd(r)
			}
			spec, err := conflictres.NewSpecFromRules(in, rs)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := reference.FromScratch(spec.Model()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

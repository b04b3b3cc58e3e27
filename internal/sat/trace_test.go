package sat_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"

	"conflictres/internal/datagen"
	"conflictres/internal/encode"
	"conflictres/internal/sat"
)

// goldenSearchTraces pins what the solver finds, not only whether: every
// status, model, level-0 Fixpoint and the Stats counters after each solve.
// A change that only makes propagation cheaper leaves all of them alone,
// since the same search visits the same assignments in the same order.
//
// bulk-mix was re-derived when the encoder's rule-set index began dropping
// the AC → city CFDs whose AC constant an entity does not hold: the solver
// now loads a smaller formula over fewer variables. groups does not
// involve the encoder.
var goldenSearchTraces = map[string]string{
	"bulk-mix": "71f6cbec07487da0239c2f9ad976544c0ca08da266e9ec0398e9e8e1d2d8c0e0",
	"groups":   "06d0598e67249e85329fe1a3be61962fbbc12286e5a3f9c9d7d4409b2e210336",
}

// traceDigest folds solver outcomes into one SHA-256 sum.
type traceDigest struct{ h hash.Hash }

func (d traceDigest) int(v int64) {
	var b [binary.MaxVarintLen64]byte
	d.h.Write(b[:binary.PutVarint(b[:], v)])
}

// solve digests a status, the model, the level-0 trail and the counters.
func (d traceDigest) solve(s *sat.Solver, st sat.Status) {
	d.int(int64(st))
	m := s.Model()
	d.int(int64(len(m)))
	for _, b := range m {
		if b {
			d.int(1)
		} else {
			d.int(0)
		}
	}
	d.fixpoint(s)
	for _, c := range []int64{s.Stats.Conflicts, s.Stats.Decisions, s.Stats.Propagations,
		s.Stats.Restarts, s.Stats.Learnt, s.Stats.Solves} {
		d.int(c)
	}
}

func (d traceDigest) fixpoint(s *sat.Solver) {
	lits, ok := s.Fixpoint()
	d.int(int64(len(lits)))
	for _, l := range lits {
		d.int(int64(l))
	}
	if ok {
		d.int(1)
	} else {
		d.int(0)
	}
}

func (d traceDigest) sum() string { return fmt.Sprintf("%x", d.h.Sum(nil)) }

// TestGoldenSearchTrace digests the search over two workloads: the root
// solve of every bulk-mix entity (BenchmarkEncodeBulkMix's 128 entities,
// each loaded into one reset solver), and the assumption solves of the
// seeded group-formula schedule, which must include conflicts and
// restarts so that backtracking is covered.
func TestGoldenSearchTrace(t *testing.T) {
	got := map[string]string{}

	d := traceDigest{sha256.New()}
	ds := datagen.Person(datagen.PersonConfig{
		Entities: 128, MinTuples: 2, MaxTuples: 40, Seed: 7,
		Skew:   datagen.SkewZipf,
		ACPool: 24, StatusChains: 6, StatusChainLen: 8,
		JobChains: 6, JobChainLen: 8,
	})
	k := encode.NewSkeleton(ds.Sigma, ds.Gamma, encode.Options{})
	s := sat.New()
	for _, ent := range ds.Entities {
		s.Reset()
		if !k.Build(ent.Spec).CNF().LoadInto(s) {
			d.int(-1)
		}
		d.fixpoint(s)
		d.solve(s, s.Solve())
	}
	got["bulk-mix"] = d.sum()

	d = traceDigest{sha256.New()}
	var conflicts, restarts int64
	var last *sat.Solver
	var prev sat.Stats
	sat.SolveGroupTrace(20130408, 20, func(s *sat.Solver, st sat.Status) {
		if s != last {
			last, prev = s, sat.Stats{}
		}
		conflicts += s.Stats.Conflicts - prev.Conflicts
		restarts += s.Stats.Restarts - prev.Restarts
		prev = s.Stats
		d.solve(s, st)
	})
	got["groups"] = d.sum()
	if conflicts == 0 || restarts == 0 {
		t.Fatalf("group schedule ran %d conflicts and %d restarts; it must backtrack and restart", conflicts, restarts)
	}
	t.Logf("group schedule: %d conflicts, %d restarts", conflicts, restarts)

	for name, want := range goldenSearchTraces {
		if got[name] != want {
			t.Errorf("%s: search trace digest %s, want %s", name, got[name], want)
		}
	}
}

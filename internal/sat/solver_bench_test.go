package sat

import (
	"math/rand"
	"testing"
)

// BenchmarkSolveRandom3SAT measures end-to-end solving of random 3-SAT near
// the satisfiability threshold (clause/variable ratio ~4.2).
func BenchmarkSolveRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const nVars = 120
	formulas := make([]*CNF, 16)
	for i := range formulas {
		c := NewCNF(nVars)
		for k := 0; k < nVars*42/10; k++ {
			var cl []Lit
			for j := 0; j < 3; j++ {
				cl = append(cl, MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0))
			}
			c.Add(cl...)
		}
		formulas[i] = c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		formulas[i%len(formulas)].LoadInto(s)
		s.Solve()
	}
}

// BenchmarkSolvePigeonhole measures a classic hard UNSAT family (PHP(8,7)),
// which exercises clause learning heavily.
func BenchmarkSolvePigeonhole(b *testing.B) {
	const holes = 7
	build := func() *Solver {
		s := New()
		vars := make([][]Var, holes+1)
		for p := range vars {
			vars[p] = make([]Var, holes)
			for h := range vars[p] {
				vars[p][h] = s.NewVar()
			}
		}
		for p := 0; p <= holes; p++ {
			cl := make([]Lit, holes)
			for h := 0; h < holes; h++ {
				cl[h] = PosLit(vars[p][h])
			}
			s.AddClause(cl...)
		}
		for h := 0; h < holes; h++ {
			for p1 := 0; p1 <= holes; p1++ {
				for p2 := p1 + 1; p2 <= holes; p2++ {
					s.AddClause(NegLit(vars[p1][h]), NegLit(vars[p2][h]))
				}
			}
		}
		return s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if build().Solve() != StatusUnsat {
			b.Fatal("PHP must be UNSAT")
		}
	}
}

// BenchmarkPropagationOnly measures the unit-propagation path DeduceOrder
// relies on: a long implication chain collapses at load time.
func BenchmarkPropagationOnly(b *testing.B) {
	const n = 5000
	c := NewCNF(n)
	c.Add(PosLit(0))
	for i := 0; i+1 < n; i++ {
		c.Add(NegLit(Var(i)), PosLit(Var(i+1)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		if !c.LoadInto(s) {
			b.Fatal("chain must stay consistent")
		}
		if lits, _ := s.Fixpoint(); len(lits) != n {
			b.Fatal("chain must fully propagate")
		}
	}
}

// BenchmarkAssumptionSolves measures repeated assumption-scoped solving on
// one loaded formula — the NaiveDeduce and MaxSAT access pattern.
func BenchmarkAssumptionSolves(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const nVars = 200
	c := NewCNF(nVars)
	for k := 0; k < nVars*3; k++ {
		c.Add(MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0),
			MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0),
			MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0))
	}
	s := New()
	c.LoadInto(s)
	if s.Solve() != StatusSat {
		b.Skip("unlucky seed produced UNSAT base formula")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := Var(i % nVars)
		s.Solve(MkLit(v, i%2 == 0))
	}
}

// BenchmarkGroupPropagation measures order-group propagation the way a
// resolve worker meets it: two 25-member groups with asymmetry clauses and
// a few order facts, loaded into a reset solver and solved at the root
// once per op. Nearly every pair atom is decided, and each decision
// propagates through its group.
func BenchmarkGroupPropagation(b *testing.B) {
	const k = 25
	c := NewCNF(0)
	v := Var(0)
	for range 2 {
		g := c.NewGroup()
		for m := 0; m < k; m++ {
			var pairs []Lit
			for i := 0; i < m; i++ {
				pairs = append(pairs, PosLit(v), PosLit(v+1))
				c.Add(NegLit(v), NegLit(v+1))
				if m == i+1 && i%5 == 0 {
					c.Add(PosLit(v))
				}
				v += 2
			}
			c.Join(g, pairs...)
		}
	}
	s := New()
	decisions := s.Stats.Decisions
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		if !c.LoadInto(s) || s.Solve() != StatusSat {
			b.Fatal("strict orders with chain facts are satisfiable")
		}
	}
	b.ReportMetric(float64(s.Stats.Decisions-decisions)/float64(b.N), "decisions/op")
}

package maxsat

import (
	"math/rand"
	"testing"

	"conflictres/internal/sat"
)

func TestHardUnsat(t *testing.T) {
	hard := sat.NewCNF(1)
	hard.Add(sat.PosLit(0))
	hard.Add(sat.NegLit(0))
	kept, ok := Solve(&Problem{Hard: hard})
	if ok || kept != nil {
		t.Fatalf("hard UNSAT: kept=%v ok=%v", kept, ok)
	}
}

func TestNoGroups(t *testing.T) {
	hard := sat.NewCNF(1)
	hard.Add(sat.PosLit(0))
	kept, ok := Solve(&Problem{Hard: hard})
	if !ok || len(kept) != 0 {
		t.Fatalf("kept=%v ok=%v", kept, ok)
	}
}

func TestAllGroupsCompatible(t *testing.T) {
	hard := sat.NewCNF(3)
	hard.Add(sat.NegLit(0), sat.PosLit(1)) // x0 -> x1
	p := &Problem{
		Hard:   hard,
		Groups: [][]sat.Lit{{sat.PosLit(0)}, {sat.PosLit(1)}, {sat.PosLit(2)}},
	}
	kept, ok := Solve(p)
	if !ok || len(kept) != 3 {
		t.Fatalf("kept=%v ok=%v, want all three", kept, ok)
	}
}

func TestConflictingGroupsMaximum(t *testing.T) {
	// Groups {x0}, {~x0}, {x1}: maximum keepable is 2.
	hard := sat.NewCNF(2)
	p := &Problem{
		Hard:   hard,
		Groups: [][]sat.Lit{{sat.PosLit(0)}, {sat.NegLit(0)}, {sat.PosLit(1)}},
	}
	kept, ok := Solve(p)
	if !ok || len(kept) != 2 {
		t.Fatalf("kept=%v, want size 2", kept)
	}
}

func TestGroupInternallyContradictory(t *testing.T) {
	hard := sat.NewCNF(1)
	p := &Problem{
		Hard:   hard,
		Groups: [][]sat.Lit{{sat.PosLit(0), sat.NegLit(0)}, {sat.PosLit(0)}},
	}
	kept, ok := Solve(p)
	if !ok || len(kept) != 1 || kept[0] != 1 {
		t.Fatalf("kept=%v, want just group 1", kept)
	}
}

func TestHardClausesConstrainGroups(t *testing.T) {
	// hard: ~x0 | ~x1 (can't have both). Groups {x0}, {x1}, {x2}.
	hard := sat.NewCNF(3)
	hard.Add(sat.NegLit(0), sat.NegLit(1))
	p := &Problem{
		Hard:   hard,
		Groups: [][]sat.Lit{{sat.PosLit(0)}, {sat.PosLit(1)}, {sat.PosLit(2)}},
	}
	kept, ok := Solve(p)
	if !ok || len(kept) != 2 {
		t.Fatalf("kept=%v, want 2 of 3", kept)
	}
	// x2's group must always be kept (never conflicts).
	found := false
	for _, k := range kept {
		if k == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("kept=%v must include group 2", kept)
	}
}

// bruteMaxGroups enumerates subsets, checking with brute-force SAT.
func bruteMaxGroups(p *Problem) int {
	n := len(p.Groups)
	best := -1
	for mask := 0; mask < 1<<uint(n); mask++ {
		c := p.Hard.Clone()
		cnt := 0
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				cnt++
				for _, l := range p.Groups[i] {
					c.Add(l)
				}
			}
		}
		if cnt <= best {
			continue
		}
		if st, _ := c.SolveBrute(); st == sat.StatusSat {
			best = cnt
		}
	}
	return best
}

func TestExactAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for iter := 0; iter < 60; iter++ {
		nVars := 3 + rng.Intn(6)
		hard := sat.NewCNF(nVars)
		for c := 0; c < rng.Intn(8); c++ {
			w := 1 + rng.Intn(3)
			var cl []sat.Lit
			for k := 0; k < w; k++ {
				cl = append(cl, sat.MkLit(sat.Var(rng.Intn(nVars)), rng.Intn(2) == 0))
			}
			hard.Add(cl...)
		}
		if st, _ := hard.SolveBrute(); st != sat.StatusSat {
			continue // skip hard-UNSAT instances; covered elsewhere
		}
		var groups [][]sat.Lit
		for g := 0; g < 1+rng.Intn(5); g++ {
			var grp []sat.Lit
			for k := 0; k < 1+rng.Intn(2); k++ {
				grp = append(grp, sat.MkLit(sat.Var(rng.Intn(nVars)), rng.Intn(2) == 0))
			}
			groups = append(groups, grp)
		}
		p := &Problem{Hard: hard, Groups: groups}
		want := bruteMaxGroups(p)
		kept, ok := Solve(p)
		if !ok {
			t.Fatalf("iter %d: hard should be SAT", iter)
		}
		if len(kept) != want {
			t.Fatalf("iter %d: kept %d groups, brute force says %d", iter, len(kept), want)
		}
	}
}

func TestGreedyFallback(t *testing.T) {
	const n = ExactGroupLimit + 6
	hard := sat.NewCNF(n)
	var groups [][]sat.Lit
	for i := 0; i < n; i++ {
		groups = append(groups, []sat.Lit{sat.PosLit(sat.Var(i))})
	}
	p := &Problem{Hard: hard, Groups: groups}
	kept, ok := Solve(p)
	if !ok || len(kept) != n {
		t.Fatalf("greedy should keep all compatible groups, kept %d", len(kept))
	}
}

func TestWalkSATFindsSatisfying(t *testing.T) {
	// Satisfiable CNF: WalkSAT should reach all-clauses-satisfied.
	c := sat.NewCNF(4)
	c.Add(sat.PosLit(0), sat.PosLit(1))
	c.Add(sat.NegLit(0), sat.PosLit(2))
	c.Add(sat.NegLit(2), sat.PosLit(3))
	assign, n := MaxSatisfiable(c, 10000, 0.3, 1)
	if n != len(c.Clauses) {
		t.Fatalf("WalkSAT satisfied %d/%d", n, len(c.Clauses))
	}
	if !c.Eval(assign) {
		t.Fatal("reported assignment does not satisfy formula")
	}
}

func TestWalkSATUnsatGetsAllButOne(t *testing.T) {
	// x ∧ ¬x: at most 1 of 2 clauses satisfiable.
	c := sat.NewCNF(1)
	c.Add(sat.PosLit(0))
	c.Add(sat.NegLit(0))
	_, n := MaxSatisfiable(c, 1000, 0.5, 7)
	if n != 1 {
		t.Fatalf("satisfied %d, want 1", n)
	}
}

func TestWalkSATDeterministicForSeed(t *testing.T) {
	c := sat.NewCNF(6)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 12; i++ {
		c.Add(sat.MkLit(sat.Var(rng.Intn(6)), rng.Intn(2) == 0),
			sat.MkLit(sat.Var(rng.Intn(6)), rng.Intn(2) == 0))
	}
	a1, n1 := MaxSatisfiable(c, 500, 0.4, 42)
	a2, n2 := MaxSatisfiable(c, 500, 0.4, 42)
	if n1 != n2 {
		t.Fatal("same seed must give same count")
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("same seed must give same assignment")
		}
	}
}

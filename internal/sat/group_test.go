package sat

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// groupFormula is a random formula mixing order groups with plain clauses,
// grown one event at a time.
type groupFormula struct {
	rng     *rand.Rand
	cnf     *CNF
	members [][]Var // per group: pair variables of the members to come
	sizes   []int   // per group: final member count
}

// groupShape bounds the groups newGroupFormula draws: up to groups groups
// of minK–maxK members, over at most pairs pair variables in all.
type groupShape struct{ groups, minK, maxK, pairs int }

var (
	// smallGroups keeps formulas within reach of enumeration.
	smallGroups = groupShape{groups: 2, minK: 2, maxK: 5, pairs: 20}
	// wideGroups draws one group of more than 64 members, so the solver's
	// rows of a member span two words.
	wideGroups = groupShape{groups: 1, minK: 65, maxK: 72, pairs: 72 * 71}
	// traceGroups draws two groups large enough that random three-literal
	// clauses over their pairs need restarts to solve.
	traceGroups = groupShape{groups: 2, minK: 9, maxK: 12, pairs: 2 * 12 * 11}
)

// newGroupFormula draws one to shape.groups groups over at most
// shape.pairs pair variables, plus 1–3 free variables, with variables
// shuffled so group pairs are not contiguous.
func newGroupFormula(rng *rand.Rand, shape groupShape) *groupFormula {
	var sizes []int
	used := 0
	for g := 0; g < 1+rng.Intn(shape.groups); g++ {
		k := shape.minK + rng.Intn(shape.maxK-shape.minK+1)
		for k*(k-1) > shape.pairs-used {
			k--
		}
		if k < 2 {
			break
		}
		sizes = append(sizes, k)
		used += k * (k - 1)
	}
	n := used + 1 + rng.Intn(3)
	perm := rng.Perm(n)
	f := &groupFormula{rng: rng, cnf: NewCNF(n), sizes: sizes}
	next := 0
	for _, k := range sizes {
		vs := make([]Var, k*(k-1))
		for i := range vs {
			vs[i] = Var(perm[next])
			next++
		}
		f.members = append(f.members, vs)
		f.cnf.NewGroup()
	}
	return f
}

// pendingJoins lists the groups that still have members to join.
func (f *groupFormula) pendingJoins() []int {
	var out []int
	for g, k := range f.sizes {
		if f.cnf.Groups[g].Members < k {
			out = append(out, g)
		}
	}
	return out
}

// join adds the next member of group g, with random literal polarities.
func (f *groupFormula) join(g int) []Lit {
	m := f.cnf.Groups[g].Members
	vs := f.members[g][m*(m-1) : m*(m+1)]
	pairs := make([]Lit, len(vs))
	for i, v := range vs {
		pairs[i] = MkLit(v, f.rng.Intn(4) == 0)
	}
	f.cnf.Join(g, pairs...)
	return pairs
}

// clause adds a random clause of 1–3 literals; units are frequent, so
// pair atoms are often fixed before their members join.
func (f *groupFormula) clause() {
	n := 1 + f.rng.Intn(3)
	if f.rng.Intn(5) < 2 {
		n = 1
	}
	cl := make([]Lit, n)
	for i := range cl {
		cl[i] = MkLit(Var(f.rng.Intn(f.cnf.NVars)), f.rng.Intn(2) == 0)
	}
	f.cnf.Add(cl...)
}

// sortedLits returns a sorted copy, for comparing trails as sets.
func sortedLits(ls []Lit) []Lit {
	out := append([]Lit(nil), ls...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// referenceFixpoint loads the expanded formula into a fresh plain solver.
func referenceFixpoint(c *CNF) (lits []Lit, ok bool) {
	p := New()
	if !c.Expand().LoadInto(p) {
		return nil, false
	}
	lits, _ = p.Fixpoint()
	return sortedLits(lits), true
}

// referenceStatus decides the formula under assumptions with a fresh plain
// solver on the expansion, and by enumeration when small enough.
func referenceStatus(t *testing.T, c *CNF, assume []Lit) Status {
	x := c.Expand()
	for _, a := range assume {
		x.Add(a)
	}
	p := New()
	st := StatusUnsat
	if x.LoadInto(p) {
		st = p.Solve()
	}
	if c.NVars <= 16 {
		if brute, _ := c.Clone().withUnits(assume).SolveBrute(); brute != st {
			t.Fatalf("expanded solver says %v, enumeration %v\n%s", st, brute, c)
		}
	}
	return st
}

// groupFixpoint loads the formula, groups and all, into a fresh solver.
func groupFixpoint(c *CNF) (lits []Lit, ok bool) {
	s := New()
	if !c.LoadInto(s) {
		return nil, false
	}
	lits, _ = s.Fixpoint()
	return sortedLits(lits), true
}

// groupStatus decides the formula under assumptions with a fresh solver.
func groupStatus(c *CNF, assume []Lit) Status {
	s := New()
	if !c.LoadInto(s) {
		return StatusUnsat
	}
	return s.Solve(assume...)
}

func (c *CNF) withUnits(ls []Lit) *CNF {
	for _, l := range ls {
		c.Add(l)
	}
	return c
}

// checkPlanes fails unless every bit of every group's planes equals the
// current value of its member pair, and every bit past the members is clear.
func checkPlanes(t *testing.T, s *Solver, iter int, event string) {
	t.Helper()
	for g := range s.groups {
		gr := &s.groups[g]
		w := gr.words
		for i := 0; i < gr.stride; i++ {
			row := s.gbits[gr.bits+4*w*i : gr.bits+4*w*(i+1)]
			for l := 0; l < 64*w; l++ {
				var want [4]bool // T_out, F_out, T_in, F_in
				if i < gr.k && l < gr.k && i != l {
					out := s.value(s.gmat[gr.off+i*gr.stride+l])
					in := s.value(s.gmat[gr.off+l*gr.stride+i])
					want = [4]bool{out == lTrue, out == lFalse, in == lTrue, in == lFalse}
				}
				for p, b := range want {
					if got := row[p*w+l/64]>>(l%64)&1 == 1; got != b {
						t.Fatalf("iter %d %s: group %d plane %d row %d bit %d is %v, pair value says %v",
							iter, event, g, p, i, l, got, b)
					}
				}
			}
		}
	}
}

// descend decides up to three open variables on s as search would,
// checking the planes at every level, then backtracks to level 0 and
// checks them again.
func descend(t *testing.T, s *Solver, rng *rand.Rand, iter int) {
	for d := 0; d < 3 && s.Okay(); d++ {
		v := Var(rng.Intn(s.NumVars()))
		if s.assigns[v] != lUndef {
			continue
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(MkLit(v, rng.Intn(2) == 0), noClause)
		conflict := s.propagate() != noClause
		checkPlanes(t, s, iter, "after a decision")
		if conflict {
			break
		}
	}
	s.cancelUntil(0)
	checkPlanes(t, s, iter, "after cancelUntil")
}

// TestGroupsAgainstExpandedTriples grows random formulas of groups and
// clauses, interleaving member joins, clause loads and assumption solves on
// one incremental solver. After every event it must agree with a plain
// solver loaded with the expanded triples and, for small formulas, with
// enumeration: the same load verdict, the same level-0 fixpoint, the same
// status and a model that satisfies the groups. At the end the solver is
// Reset and reloaded and must again match. Throughout, the solver's bit
// planes must agree with the assignment (checkPlanes), also above level 0.
// One formula in 100 has a group of more than 64 members, so its rows span
// two words; its joins and clauses arrive in bursts.
func TestGroupsAgainstExpandedTriples(t *testing.T) {
	rng := rand.New(rand.NewSource(20130408))
	replayed, wide := 0, 0
	for iter := 0; iter < 400; iter++ {
		big := iter%100 == 99
		shape, burst := smallGroups, 1
		if big {
			shape, burst = wideGroups, 16
		}
		f := newGroupFormula(rng, shape)
		inc := New()
		for inc.NumVars() < f.cnf.NVars {
			inc.NewVar()
		}
		loaded := 0
		// A wide formula's expansion is too large to rebuild after every
		// event, so until its last member joins it is checked against a
		// fresh load of its groups instead.
		expanded := func() bool { return !big || len(f.pendingJoins()) == 0 }
		check := func(event string) {
			want, wantOK := groupFixpoint(f.cnf)
			if expanded() {
				want, wantOK = referenceFixpoint(f.cnf)
			}
			fresh := New()
			if got := f.cnf.LoadInto(fresh); got != wantOK {
				t.Fatalf("iter %d %s: group load ok=%v, expanded load ok=%v\n%s", iter, event, got, wantOK, f.cnf)
			}
			if !wantOK {
				if inc.Okay() {
					t.Fatalf("iter %d %s: incremental solver consistent on a UP-inconsistent formula", iter, event)
				}
				return
			}
			got, exact := fresh.Fixpoint()
			if !exact || !reflect.DeepEqual(sortedLits(got), want) {
				t.Fatalf("iter %d %s: fresh group fixpoint %v (exact=%v), expanded %v\n%s", iter, event, sortedLits(got), exact, want, f.cnf)
			}
			if got, exact := inc.Fixpoint(); exact && inc.Okay() && !reflect.DeepEqual(sortedLits(got), want) {
				t.Fatalf("iter %d %s: incremental fixpoint %v, expanded %v\n%s", iter, event, sortedLits(got), want, f.cnf)
			}
		}
		for {
			joins := f.pendingJoins()
			r := rng.Intn(10)
			switch {
			case r < 4 && len(joins) > 0:
				g := joins[rng.Intn(len(joins))]
				for n := burst; n > 0 && f.cnf.Groups[g].Members < f.sizes[g]; n-- {
					for _, l := range f.join(g) {
						if inc.Okay() && inc.Value(l.Var()) != 0 {
							replayed++
							break
						}
					}
				}
			case r < 8:
				for n := burst; n > 0; n-- {
					f.clause()
				}
			default:
				var assume []Lit
				for i := rng.Intn(3); i > 0; i-- {
					assume = append(assume, MkLit(Var(rng.Intn(f.cnf.NVars)), rng.Intn(2) == 0))
				}
				want := groupStatus(f.cnf, assume)
				if expanded() {
					want = referenceStatus(t, f.cnf, assume)
				}
				got := StatusUnsat
				if inc.Okay() {
					got = inc.Solve(assume...)
				}
				if got != want {
					t.Fatalf("iter %d: incremental solve %v under %v, expanded %v\n%s", iter, got, assume, want, f.cnf)
				}
				if got == StatusSat && !f.cnf.Eval(inc.Model()) {
					t.Fatalf("iter %d: model violates the formula\n%s", iter, f.cnf)
				}
				checkPlanes(t, inc, iter, "after a solve")
				descend(t, inc, rng, iter)
			}
			f.cnf.AppendInto(inc, loaded)
			loaded = len(f.cnf.Clauses)
			checkPlanes(t, inc, iter, "after a load")
			check("after event")
			if len(f.pendingJoins()) == 0 && (big || rng.Intn(4) == 0) {
				break
			}
		}
		for _, k := range f.sizes {
			if k > 64 {
				wide++
			}
		}
		want := referenceStatus(t, f.cnf, nil)
		inc.Reset()
		checkPlanes(t, inc, iter, "after Reset")
		f.cnf.LoadInto(inc)
		checkPlanes(t, inc, iter, "after a reload")
		check("after Reset")
		got := StatusUnsat
		if inc.Okay() {
			got = inc.Solve()
		}
		if got != want {
			t.Fatalf("iter %d: after Reset solve %v, expanded %v\n%s", iter, got, want, f.cnf)
		}
	}
	if replayed < 50 {
		t.Fatalf("only %d joins met atoms already fixed at level 0; the schedule no longer exercises replay", replayed)
	}
	if wide < 4 {
		t.Fatalf("only %d groups of more than 64 members; the schedule no longer exercises multi-word rows", wide)
	}
}

// TestGroupJoinReplaysFixedAtoms: a ≺ b and b ≺ c are units before c joins
// the group {a, b, c}. Nothing propagates a ≺ c when those units load, since
// the triple does not exist yet; the join must replay the fixed atoms over
// its new triples.
func TestGroupJoinReplaysFixedAtoms(t *testing.T) {
	const ab, ba, ac, ca, bc, cb = Var(0), Var(1), Var(2), Var(3), Var(4), Var(5)
	c := NewCNF(6)
	g := c.NewGroup()
	c.Join(g)
	c.Join(g, PosLit(ab), PosLit(ba))
	c.Add(PosLit(ab))
	c.Add(PosLit(bc))
	s := New()
	if !c.LoadInto(s) {
		t.Fatal("formula loads consistently")
	}
	c.Join(g, PosLit(ac), PosLit(ca), PosLit(bc), PosLit(cb))
	if !c.AppendInto(s, len(c.Clauses)) {
		t.Fatal("join conflicts with nothing")
	}
	got, ok := s.Fixpoint()
	want := []Lit{PosLit(ab), PosLit(bc), PosLit(ac)}
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Fixpoint = %v (ok=%v), want %v", got, ok, want)
	}

	// With ¬(a ≺ c) loaded as well, the same join is a conflict.
	c2 := NewCNF(6)
	g = c2.NewGroup()
	c2.Join(g)
	c2.Join(g, PosLit(ab), PosLit(ba))
	c2.Add(PosLit(ab))
	c2.Add(PosLit(bc))
	c2.Add(NegLit(ac))
	s.Reset()
	c2.LoadInto(s)
	c2.Join(g, PosLit(ac), PosLit(ca), PosLit(bc), PosLit(cb))
	if c2.AppendInto(s, len(c2.Clauses)) || s.Okay() {
		t.Fatal("a≺b, b≺c, ¬(a≺c) must conflict once c joins")
	}
}

// TestGroupReasonSlotsReused runs thousands of assumption solves on one
// solver holding a group: the reason slots its consequences borrow are
// handed back on backtrack, so the clause arena stays bounded.
func TestGroupReasonSlotsReused(t *testing.T) {
	const k = 8
	c := NewCNF(0)
	g := c.NewGroup()
	v := Var(0)
	lit := map[[2]int]Lit{}
	for m := 0; m < k; m++ {
		var pairs []Lit
		for i := 0; i < m; i++ {
			lit[[2]int{i, m}], lit[[2]int{m, i}] = PosLit(v), PosLit(v+1)
			pairs = append(pairs, PosLit(v), PosLit(v+1))
			c.Add(NegLit(v), NegLit(v+1))
			v += 2
		}
		c.Join(g, pairs...)
	}
	s := New()
	if !c.LoadInto(s) {
		t.Fatal("strict order axioms are consistent")
	}
	rng := rand.New(rand.NewSource(5))
	var arena0, learnt0 int
	for q := 0; q < 3000; q++ {
		var assume []Lit
		for n := 2 + rng.Intn(4); n > 0; n-- {
			i, j := rng.Intn(k), rng.Intn(k)
			if i != j {
				assume = append(assume, lit[[2]int{i, j}])
			}
		}
		s.Solve(assume...)
		if q == 100 {
			arena0, learnt0 = len(s.arena), int(s.Stats.Learnt)
		}
	}
	if len(s.usedSlots) != 0 {
		t.Fatalf("%d reason slots still lent out at level 0", len(s.usedSlots))
	}
	learnt := int(s.Stats.Learnt) - learnt0
	if grown := len(s.arena) - arena0; grown > learnt+k*k {
		t.Fatalf("arena grew by %d entries over 2900 solves that learnt %d clauses", grown, learnt)
	}
}

// TestGroupDIMACSWritesTriples: DIMACS has no groups, so WriteDIMACS writes
// each group's transitivity clauses, and reading the file back gives the
// expanded formula.
func TestGroupDIMACSWritesTriples(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 30; iter++ {
		f := newGroupFormula(rng, smallGroups)
		for len(f.pendingJoins()) > 0 {
			f.join(f.pendingJoins()[0])
			f.clause()
		}
		var buf bytes.Buffer
		if err := f.cnf.WriteDIMACS(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadDIMACS(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if want := f.cnf.Expand(); !reflect.DeepEqual(got.Clauses, want.Clauses) || got.NVars != want.NVars {
			t.Fatalf("iter %d: DIMACS read back %d clauses over %d vars, want the expansion's %d over %d",
				iter, len(got.Clauses), got.NVars, len(want.Clauses), want.NVars)
		}
	}
}

// solveGroupTrace replays a seeded schedule of hard group formulas: each
// draws traceGroups, makes every group a strict order with asymmetry
// clauses, and grows on one incremental solver by member joins, bursts of
// 20 random three-literal clauses and assumption solves. visit sees every
// solve's status, with the solver back at level 0.
func solveGroupTrace(seed int64, formulas int, visit func(s *Solver, st Status)) {
	rng := rand.New(rand.NewSource(seed))
	for n := 0; n < formulas; n++ {
		f := newGroupFormula(rng, traceGroups)
		s := New()
		f.cnf.LoadInto(s)
		loaded := 0
		for events := 0; events < 40 || len(f.pendingJoins()) > 0; events++ {
			joins := f.pendingJoins()
			r := rng.Intn(10)
			switch {
			case r < 4 && len(joins) > 0:
				pairs := f.join(joins[rng.Intn(len(joins))])
				for i := 0; i < len(pairs); i += 2 {
					f.cnf.Add(pairs[i].Not(), pairs[i+1].Not())
				}
			case r < 8:
				for c := 0; c < 20; c++ {
					var cl [3]Lit
					for i := range cl {
						cl[i] = MkLit(Var(rng.Intn(f.cnf.NVars)), rng.Intn(2) == 0)
					}
					f.cnf.Add(cl[:]...)
				}
			default:
				var assume []Lit
				for i := rng.Intn(4); i > 0; i-- {
					assume = append(assume, MkLit(Var(rng.Intn(f.cnf.NVars)), rng.Intn(2) == 0))
				}
				visit(s, s.Solve(assume...))
			}
			f.cnf.AppendInto(s, loaded)
			loaded = len(f.cnf.Clauses)
		}
	}
}

package core

import (
	"conflictres/internal/encode"
	"conflictres/internal/relation"
	"conflictres/internal/sat"
)

// IsValid reports whether the specification compiled into enc is valid,
// i.e. whether Φ(Se) is satisfiable (paper Section V-A, Lemma 5). The
// second result is the satisfying model when valid, for diagnostics.
//
// It builds and loads a throwaway solver; callers that already hold Φ(Se)
// in a solver (resolution engines, pooled pipelines) use IsValidWith and
// skip the redundant clause load.
func IsValid(enc *encode.Encoding) (bool, []bool) {
	s := sat.New()
	if !enc.CNF().LoadInto(s) {
		return false, nil
	}
	return IsValidWith(s)
}

// IsValidWith is IsValid against a caller-supplied solver that already
// holds Φ(Se) (loaded via LoadInto/AppendInto): one root solve, no clause
// reload.
func IsValidWith(s *sat.Solver) (bool, []bool) {
	if !s.Okay() {
		return false, nil
	}
	if s.Solve() != sat.StatusSat {
		return false, nil
	}
	return true, s.Model()
}

// DeduceOrder implements the algorithm of Fig. 5: it collects the
// one-literal clauses of Φ(Se) under reduction — operationally, the unit
// propagation fixpoint — into a derived order Od. A positive unit
// x^A_{a1a2} contributes a1 ≺v a2; a negative unit contributes the reverse
// atom a2 ≺v a1, sound because every completion totally orders distinct
// values. The boolean result is false when Φ(Se) is propositionally
// inconsistent at the top level (the specification is certainly invalid).
func DeduceOrder(enc *encode.Encoding) (*OrderSet, bool) {
	s := sat.New()
	if !enc.CNF().LoadInto(s) {
		return NewOrderSet(), false
	}
	return DeduceOrderWith(enc, s)
}

// DeduceOrderWith is DeduceOrder against a caller-supplied solver that
// already holds Φ(Se): the derived order is read off the solver's level-0
// trail with no clause reload. Once a learnt clause has fired at level 0
// (see sat.Solver.Fixpoint) the trail is no longer the Fig. 5 fixpoint, and
// the deduction falls back to DeduceOrder on a fresh solver.
func DeduceOrderWith(enc *encode.Encoding, s *sat.Solver) (*OrderSet, bool) {
	lits, exact := s.Fixpoint()
	if !exact {
		return DeduceOrder(enc)
	}
	if !s.Okay() {
		return NewOrderSet(), false
	}
	return orderFromTrail(enc, lits), true
}

// orderFromTrail converts level-0 trail literals into a derived order.
func orderFromTrail(enc *encode.Encoding, lits []sat.Lit) *OrderSet {
	od := NewOrderSet()
	for _, l := range lits {
		p := enc.Pair(l.Var())
		if l.Neg() {
			p.A1, p.A2 = p.A2, p.A1
		}
		od.Add(p)
	}
	return od
}

// NaiveDeduce implements the exact baseline of Section V-B: for every order
// variable x it asks the SAT solver whether Φ(Se) ∧ ¬x is unsatisfiable
// (x implied) or Φ(Se) ∧ x is unsatisfiable (¬x implied, contributing the
// reverse atom). One initial model prunes half the calls: a literal can only
// be implied if it holds in that model.
func NaiveDeduce(enc *encode.Encoding) (*OrderSet, bool) {
	s := sat.New()
	if !enc.CNF().LoadInto(s) {
		return NewOrderSet(), false
	}
	return NaiveDeduceWith(enc, s)
}

// NaiveDeduceWith is NaiveDeduce against a caller-supplied solver that
// already holds Φ(Se): the assumption probes reuse the solver's learned
// clauses instead of paying a clause load per phase.
func NaiveDeduceWith(enc *encode.Encoding, s *sat.Solver) (*OrderSet, bool) {
	od := NewOrderSet()
	if !s.Okay() {
		return od, false
	}
	if s.Solve() != sat.StatusSat {
		return od, false
	}
	model := s.Model()
	for v := 0; v < enc.NumVars(); v++ {
		vr := sat.Var(v)
		if model[v] {
			if s.Solve(sat.NegLit(vr)) == sat.StatusUnsat {
				od.Add(enc.Pair(vr))
			}
		} else {
			if s.Solve(sat.PosLit(vr)) == sat.StatusUnsat {
				p := enc.Pair(vr)
				p.A1, p.A2 = p.A2, p.A1
				od.Add(p)
			}
		}
	}
	return od, true
}

// TrueValues extracts the attributes whose true value is determined by the
// derived order Od (Section V-B, "True value deduction"): value a1 is the
// true value of A when every other active-domain value is ≺ a1 in Od and a1
// itself is not dominated by any domain value. Attributes with several or
// zero such values stay unresolved.
func TrueValues(enc *encode.Encoding, od *OrderSet) map[relation.Attr]relation.Value {
	out := make(map[relation.Attr]relation.Value)
	for _, a := range enc.Schema.Attrs() {
		dom := enc.Dom(a)
		winner, count := -1, 0
		for i := range dom {
			if od.coversAdom(enc, a, i) && !od.dominatedInDom(enc, a, i) {
				winner = i
				count++
				if count > 1 {
					break
				}
			}
		}
		if count == 1 {
			out[a] = dom[winner]
		}
	}
	return out
}

// Candidates implements DeriveVR (Section V-C.2): for each unresolved
// attribute, V(A) is the set of active-domain values not dominated by
// another active-domain value in Od. Resolved attributes map to their
// single true value.
func Candidates(enc *encode.Encoding, od *OrderSet, resolved map[relation.Attr]relation.Value) map[relation.Attr][]relation.Value {
	out := make(map[relation.Attr][]relation.Value)
	for _, a := range enc.Schema.Attrs() {
		if v, ok := resolved[a]; ok {
			out[a] = []relation.Value{v}
			continue
		}
		var vs []relation.Value
		for _, i := range enc.ADomIndices(a) {
			if !od.dominatedInAdom(enc, a, i) {
				vs = append(vs, enc.Dom(a)[i])
			}
		}
		out[a] = vs
	}
	return out
}

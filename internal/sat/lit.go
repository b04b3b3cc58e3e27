// Package sat implements a conflict-driven clause-learning (CDCL) SAT solver
// in the style of MiniSat: two-watched-literal propagation, first-UIP clause
// learning, VSIDS variable activity, phase saving and Luby restarts.
//
// It stands in for the MiniSat dependency of Fan et al. (ICDE 2013), whose
// IsValid, NaiveDeduce and Suggest algorithms all reduce to SAT over the CNF
// Φ(Se) built by the encode package. A brute-force reference solver is
// included for property tests.
//
// Besides clauses, a formula carries order groups (Group). A group stands
// for the transitivity clauses of a strict order over its members — the
// cubic bulk of Φ(Se) — without storing them, and the solver propagates it
// as a theory, in the manner of lazy clause generation (Ohrimenko, Stuckey
// and Codish 2009): fixing a pair atom applies exactly the
// unit-propagation rules of the clauses it stands for, visiting only the
// members whose triple can act (bit planes of the members' assigned pairs
// yield them in a few word operations), and a propagated literal's reason
// is the three-literal clause that implied it, which conflict analysis
// treats like any problem clause.
// Unit-propagation closure, satisfiability and the level-0 Fixpoint are
// therefore those of the expanded formula (CNF.Expand).
package sat

import "fmt"

// Var is a propositional variable, numbered from 0.
type Var int32

// Lit is a literal: variable with a sign. The positive literal of variable v
// is Lit(2v); the negative literal is Lit(2v+1).
type Lit int32

// MkLit builds the literal of v, negated if neg.
func MkLit(v Var, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v) << 1 }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(v)<<1 | 1 }

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether the literal is negative.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complementary literal.
func (l Lit) Not() Lit { return l ^ 1 }

func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("~x%d", l.Var())
	}
	return fmt.Sprintf("x%d", l.Var())
}

// lbool is a three-valued boolean.
type lbool int8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = -1
)

// Status is the outcome of a solve call.
type Status int

const (
	// StatusUnknown means a restart's conflict budget ran out; Solve itself
	// restarts and never returns it.
	StatusUnknown Status = iota
	// StatusSat means a satisfying assignment was found.
	StatusSat
	// StatusUnsat means the formula (under the given assumptions) is
	// unsatisfiable.
	StatusUnsat
)

func (s Status) String() string {
	switch s {
	case StatusSat:
		return "SAT"
	case StatusUnsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

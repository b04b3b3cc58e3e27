package sat

import (
	"reflect"
	"testing"
)

// TestFixpointAfterLearntUnit pins Fixpoint's contract on a formula whose
// search must learn a unit: (a∨b)(a∨¬b) implies a, but unit propagation does
// not see it, while the problem units e and e→f put e and f on the trail at
// load time. The first decision (a, polarity false) conflicts and the
// solver learns the unit a.
func TestFixpointAfterLearntUnit(t *testing.T) {
	const a, b, e, f = Var(0), Var(1), Var(2), Var(3)
	c := NewCNF(4)
	c.Add(PosLit(a), PosLit(b))
	c.Add(PosLit(a), NegLit(b))
	c.Add(PosLit(e))
	c.Add(NegLit(e), PosLit(f))

	fresh := New()
	if !c.LoadInto(fresh) {
		t.Fatal("formula must load consistently")
	}
	want, ok := fresh.Fixpoint()
	if !ok {
		t.Fatal("Fixpoint not exact before any search")
	}
	if !reflect.DeepEqual(want, []Lit{PosLit(e), PosLit(f)}) {
		t.Fatalf("fresh fixpoint = %v, want [e f]", want)
	}

	s := New()
	c.LoadInto(s)
	if s.Solve() != StatusSat {
		t.Fatal("formula is satisfiable")
	}
	lits, ok := s.Fixpoint()
	if ok {
		t.Fatalf("Fixpoint still exact after a learnt unit; trail %v", lits)
	}
	if s.Value(a) != 1 {
		t.Fatalf("learnt unit a not at level 0; trail %v", lits)
	}

	s.Reset()
	c.LoadInto(s)
	got, ok := s.Fixpoint()
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("after Reset+reload Fixpoint = %v (ok=%v), want %v", got, ok, want)
	}
}

// TestFixpointAfterLearntReasonAtRoot covers the other way a learnt clause
// reaches level 0: the search learns the binary clause (a∨b) from
// (a∨b∨c)(a∨b∨¬c) after deciding ¬a then ¬b; a later unit ¬a then
// propagates b through that learnt clause at level 0, which pure unit
// propagation over the problem clauses never derives. (With equal
// activities the heap hands out variable 0 first and then the last one,
// hence b = 2.)
func TestFixpointAfterLearntReasonAtRoot(t *testing.T) {
	const a, c, b = Var(0), Var(1), Var(2)
	cnf := NewCNF(3)
	cnf.Add(PosLit(a), PosLit(b), PosLit(c))
	cnf.Add(PosLit(a), PosLit(b), NegLit(c))

	s := New()
	cnf.LoadInto(s)
	if s.Solve() != StatusSat {
		t.Fatal("formula is satisfiable")
	}
	if lits, ok := s.Fixpoint(); !ok || len(lits) != 0 {
		t.Fatalf("no unit learnt yet: Fixpoint = %v (ok=%v)", lits, ok)
	}
	if s.Stats.Learnt == 0 {
		t.Fatal("search learnt no clause; decision order changed")
	}
	cnf.Add(NegLit(a))
	cnf.AppendInto(s, len(cnf.Clauses)-1)
	if lits, ok := s.Fixpoint(); ok {
		t.Fatalf("learnt clause fired at level 0 but Fixpoint exact: %v", lits)
	}

	s.Reset()
	cnf.LoadInto(s)
	got, ok := s.Fixpoint()
	if want := []Lit{NegLit(a)}; !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("after Reset+reload Fixpoint = %v (ok=%v), want %v", got, ok, want)
	}
}

// TestFixpointAfterLearntConflictAtRoot: a learnt clause falsified at level
// 0 leaves the solver inconsistent where the problem clauses alone propagate
// cleanly, so Fixpoint must report it too. The learnt clause (a∨b) is
// attached by hand; the units d, ¬d∨¬a and ¬d∨¬b then falsify both its
// literals before either watch is visited.
func TestFixpointAfterLearntConflictAtRoot(t *testing.T) {
	const a, b, d = Var(0), Var(1), Var(2)
	cnf := NewCNF(3)
	cnf.Add(NegLit(d), NegLit(a))
	cnf.Add(NegLit(d), NegLit(b))
	cnf.Add(PosLit(d))

	s := New()
	for s.NumVars() < cnf.NVars {
		s.NewVar()
	}
	cr := s.newClause([]Lit{PosLit(a), PosLit(b)}, true)
	s.attach(cr)
	s.learnts = append(s.learnts, cr)
	if cnf.LoadInto(s) {
		t.Fatal("learnt clause (a∨b) must conflict with ¬a, ¬b at level 0")
	}
	if _, ok := s.Fixpoint(); ok {
		t.Fatal("learnt clause conflicted at level 0 but Fixpoint exact")
	}

	s.Reset()
	if !cnf.LoadInto(s) {
		t.Fatal("problem clauses alone propagate without conflict")
	}
	got, ok := s.Fixpoint()
	if want := []Lit{PosLit(d), NegLit(a), NegLit(b)}; !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("after Reset+reload Fixpoint = %v (ok=%v), want %v", got, ok, want)
	}
}

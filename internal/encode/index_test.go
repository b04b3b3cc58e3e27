package encode

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"conflictres/internal/constraint"
	"conflictres/internal/model"
	"conflictres/internal/relation"
	"conflictres/internal/sat"
)

// indexPool is the value pool random index specs draw from: strings,
// numerically equal ints and floats, a NaN and null.
var indexPool = []relation.Value{
	relation.String("a"), relation.String("b"), relation.String("c"),
	relation.Int(1), relation.Float(1), relation.Int(2), relation.Float(2.5),
	relation.Float(math.NaN()), relation.Null,
}

// randomIndexSpec draws a specification over a 4-attribute schema whose
// rules mention constants from indexPool and one no tuple ever holds.
func randomIndexSpec(rng *rand.Rand) *model.Spec {
	sch := relation.MustSchema("A", "B", "C", "D")
	val := func() relation.Value { return indexPool[rng.Intn(len(indexPool))] }
	konst := func() relation.Value {
		if rng.Intn(5) == 0 {
			return relation.String("never")
		}
		return val()
	}
	attr := func() relation.Attr { return relation.Attr(rng.Intn(sch.Len())) }
	var sigma []constraint.Currency
	for i := 0; i < 12; i++ {
		c := constraint.Currency{Target: attr()}
		for j := rng.Intn(4); j > 0; j-- {
			switch rng.Intn(4) {
			case 0:
				c.Body = append(c.Body, constraint.CurrencyPred(attr()))
			case 1:
				c.Body = append(c.Body, constraint.ComparePred(
					constraint.AttrOperand(constraint.T1, attr()), constraint.OpLt,
					constraint.AttrOperand(constraint.T2, attr())))
			default:
				l := constraint.AttrOperand(constraint.TupleRef(1+rng.Intn(2)), attr())
				r := constraint.ConstOperand(konst())
				if rng.Intn(2) == 0 {
					l, r = r, l
				}
				c.Body = append(c.Body, constraint.ComparePred(l, constraint.OpEq, r))
			}
		}
		sigma = append(sigma, c)
	}
	// CFD constants come from the pool and from ghost values no tuple
	// holds, which chain through heads.
	cfdPool := append(slices.Clone(indexPool[:len(indexPool)-1]), // no null
		relation.String("g1"), relation.String("g2"), relation.String("never"))
	cfdConst := func() relation.Value { return cfdPool[rng.Intn(len(cfdPool))] }
	var gamma []constraint.CFD
	for i := 0; i < 6; i++ {
		perm := rng.Perm(sch.Len())
		nx := 1 + rng.Intn(2)
		cfd := constraint.CFD{B: relation.Attr(perm[nx]), VB: cfdConst()}
		for _, a := range perm[:nx] {
			cfd.X = append(cfd.X, relation.Attr(a))
			cfd.PX = append(cfd.PX, cfdConst())
		}
		gamma = append(gamma, cfd)
	}
	in := relation.NewInstance(sch)
	for t := 2 + rng.Intn(5); t > 0; t-- {
		in.MustAdd(relation.Tuple{val(), val(), val(), val()})
	}
	// Explicit edges give the CFD bodies facts to fire on.
	ti := model.NewTemporal(in)
	for e := rng.Intn(2 * in.Len()); e > 0; e-- {
		ti.MustOrder(attr(), relation.TupleID(rng.Intn(in.Len())), relation.TupleID(rng.Intn(in.Len())))
	}
	return model.NewSpec(ti, sigma, gamma)
}

// assertSkippedVacuous instantiates every currency constraint the index
// leaves dead over every ordered pair of distinct tuples and fails if any
// yields an instance. The dedup epoch is advanced first so an instance
// equal to one a live constraint emitted still counts; the encoding is
// spoilt afterwards.
func assertSkippedVacuous(t *testing.T, e *Encoding, what string) {
	t.Helper()
	e.seenEpoch++
	n := e.Spec.TI.Inst.Len()
	for ci, c := range e.Spec.Sigma {
		if slices.Contains(e.live.sigmaLive, int32(ci)) {
			continue
		}
		before := len(e.Omega)
		for t1 := 0; t1 < n; t1++ {
			for t2 := 0; t2 < n; t2++ {
				if t1 != t2 {
					e.instantiatePair(ci, c, relation.TupleID(t1), relation.TupleID(t2))
				}
			}
		}
		if len(e.Omega) != before {
			t.Fatalf("%s: skipped constraint %d (%s) has an instance", what, ci, c.Format(e.Schema))
		}
	}
}

// TestIndexSkipsOnlyVacuousMembers checks the index's one promise on
// random specifications: a member it skips has no non-vacuous instance,
// after a build and after each incremental extension that grows the
// active domains.
func TestIndexSkipsOnlyVacuousMembers(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	skipped := 0
	for i := 0; i < 300; i++ {
		spec := randomIndexSpec(rng)
		assertSkippedVacuous(t, Build(spec, Options{}), "build")

		// Grow the same entity from its first tuple, one row at a time.
		in := spec.TI.Inst
		first := relation.NewInstance(in.Schema())
		first.MustAdd(in.Tuple(0))
		enc := Build(model.NewSpec(model.NewTemporal(first), spec.Sigma, spec.Gamma), Options{})
		for id := 1; id < in.Len(); id++ {
			if !enc.ExtendRows([]relation.Tuple{in.Tuple(relation.TupleID(id))}, nil) {
				enc = Build(enc.Spec, Options{})
			}
			check := Build(enc.Spec, Options{})
			if !slices.Equal(check.live.sigmaLive, enc.live.sigmaLive) {
				t.Fatalf("spec %d: live Σ after extension %v, fresh build %v", i, enc.live.sigmaLive, check.live.sigmaLive)
			}
			if !slices.Equal(check.live.gammaLive, enc.live.gammaLive) {
				t.Fatalf("spec %d: live Γ after extension %v, fresh build %v", i, enc.live.gammaLive, check.live.gammaLive)
			}
		}
		skipped += len(spec.Sigma) - len(enc.live.sigmaLive)
		assertSkippedVacuous(t, enc, "extension")
	}
	if skipped == 0 {
		t.Fatal("the index skipped no member")
	}
}

// withDeadCFDs returns the formula the index pruned: e's encoding plus
// every dead CFD's constants, instances and axioms, as encoders without
// the index emitted them. ok is false when that would cross the
// transitivity cap.
func withDeadCFDs(e *Encoding) (dead []int32, ok bool) {
	for gi := range e.Spec.Gamma {
		if !slices.Contains(e.live.gammaLive, int32(gi)) {
			dead = append(dead, int32(gi))
		}
	}
	mark := len(e.Omega)
	e.addCFDConstants(dead)
	for _, gi := range dead {
		e.emitCFD(int(gi), e.adomIdx[e.Spec.Gamma[gi].B])
	}
	return dead, e.coverNewValues(mark)
}

// atomText names an order atom by its values, so atoms of two encodings
// with different domain numberings compare.
func atomText(e *Encoding, l sat.Lit) string {
	p := e.Pair(l.Var())
	return fmt.Sprintf("%v %d %s %s", l.Neg(), p.Attr, e.doms[p.Attr][p.A1].Quote(), e.doms[p.Attr][p.A2].Quote())
}

// TestIndexSkippedCFDsAreVacuous checks the Γ closure on random
// specifications: adding back every CFD the index left dead — its
// constants, its instances and their axioms — changes neither
// satisfiability nor the unit-propagation fixpoint over the pruned
// formula's atoms (the deduction of Fig. 5), and puts no active value
// below a dropped constant there.
func TestIndexSkippedCFDsAreVacuous(t *testing.T) {
	rng := rand.New(rand.NewSource(7081))
	compared := 0
	for i := 0; i < 400; i++ {
		spec := randomIndexSpec(rng)
		pruned := Build(spec, Options{})
		full := Build(spec, Options{})
		dead, ok := withDeadCFDs(full)
		if pruned.Sparse || !ok || len(dead) == 0 {
			continue
		}
		compared++
		sp, sf := sat.New(), sat.New()
		okP, okF := pruned.CNF().LoadInto(sp), full.CNF().LoadInto(sf)
		if okP != okF {
			t.Fatalf("spec %d: root consistency %v pruned, %v with dead CFDs", i, okP, okF)
		}
		if !okP {
			continue
		}
		fp, _ := sp.Fixpoint()
		ff, _ := sf.Fixpoint()
		want := map[string]bool{}
		for _, l := range fp {
			want[atomText(pruned, l)] = true
		}
		got := 0
		for _, l := range ff {
			p := full.Pair(l.Var())
			_, in1 := pruned.ValueIndex(p.Attr, full.doms[p.Attr][p.A1])
			_, in2 := pruned.ValueIndex(p.Attr, full.doms[p.Attr][p.A2])
			switch {
			case in1 && in2:
				if !want[atomText(full, l)] {
					t.Fatalf("spec %d: dead CFDs derive %s", i, atomText(full, l))
				}
				got++
			case in1 && !l.Neg(), in2 && l.Neg():
				t.Fatalf("spec %d: dead CFDs put an active value below a dropped constant: %s", i, atomText(full, l))
			}
		}
		if got != len(want) {
			t.Fatalf("spec %d: fixpoint over pruned atoms has %d literals with dead CFDs, %d without", i, got, len(want))
		}
		if vp, vf := sp.Solve(), sf.Solve(); vp != vf {
			t.Fatalf("spec %d: Solve %v pruned, %v with dead CFDs", i, vp, vf)
		}
	}
	if compared < 100 {
		t.Fatalf("only %d specs had dead CFDs to compare", compared)
	}
}

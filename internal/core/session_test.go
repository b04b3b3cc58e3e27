package core

import (
	"fmt"
	"math/rand"
	"testing"

	"conflictres/internal/encode"
	"conflictres/internal/exact"
	"conflictres/internal/fixtures"
	"conflictres/internal/model"
	"conflictres/internal/relation"
	"conflictres/internal/sat"
)

// atomKey renders an order atom value-to-value so order sets from encodings
// with different variable/domain numbering can be compared.
func atomKey(enc *encode.Encoding, l encode.OrderLit) string {
	return fmt.Sprintf("%d|%s|%s", l.Attr, enc.Dom(l.Attr)[l.A1], enc.Dom(l.Attr)[l.A2])
}

func atomSet(enc *encode.Encoding, od *OrderSet) map[string]bool {
	out := make(map[string]bool, od.Len())
	for _, l := range od.Lits() {
		out[atomKey(enc, l)] = true
	}
	return out
}

// TestSessionSinglePassMatchesOneShot: on a freshly built specification the
// session's validity, Fig.-5 deduction and exact per-variable deduction must
// agree exactly with the from-scratch implementations — same formula, same
// algorithms, shared solver.
func TestSessionSinglePassMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(20130401))
	specs := []*model.Spec{fixtures.EdithSpec(), fixtures.GeorgeSpec()}
	for i := 0; i < 150; i++ {
		specs = append(specs, randomSpec(rng))
	}
	for i, spec := range specs {
		enc := encode.Build(spec, encode.Options{})
		sess := NewSession(spec.Clone(), encode.Options{})

		wantValid, _ := IsValid(enc)
		gotValid, _ := sess.IsValid()
		if wantValid != gotValid {
			t.Fatalf("spec %d: IsValid session=%v one-shot=%v", i, gotValid, wantValid)
		}

		wantOd, wantOK := DeduceOrder(enc)
		gotOd, gotOK := sess.DeduceOrder()
		if wantOK != gotOK {
			t.Fatalf("spec %d: DeduceOrder ok session=%v one-shot=%v", i, gotOK, wantOK)
		}
		want, got := atomSet(enc, wantOd), atomSet(sess.Encoding(), gotOd)
		for k := range want {
			if !got[k] {
				t.Fatalf("spec %d: one-shot deduced %s, session did not", i, k)
			}
		}
		for k := range got {
			if !want[k] {
				t.Fatalf("spec %d: session deduced %s on a fresh spec, one-shot did not", i, k)
			}
		}

		if !wantValid {
			continue
		}
		wantNd, _ := NaiveDeduce(enc)
		gotNd, _ := sess.NaiveDeduce()
		wantN, gotN := atomSet(enc, wantNd), atomSet(sess.Encoding(), gotNd)
		if len(wantN) != len(gotN) {
			t.Fatalf("spec %d: NaiveDeduce sizes session=%d one-shot=%d", i, len(gotN), len(wantN))
		}
		for k := range wantN {
			if !gotN[k] {
				t.Fatalf("spec %d: NaiveDeduce disagrees on %s", i, k)
			}
		}

		// TrueValues from the matching orders must match too.
		wantTV := TrueValues(enc, wantOd)
		gotTV := TrueValues(sess.Encoding(), gotOd)
		if len(wantTV) != len(gotTV) {
			t.Fatalf("spec %d: TrueValues sizes session=%d one-shot=%d", i, len(gotTV), len(wantTV))
		}
		for a, v := range wantTV {
			if gv, ok := gotTV[a]; !ok || !relation.Equal(gv, v) {
				t.Fatalf("spec %d attr %d: TrueValues session=%v one-shot=%v", i, a, gotTV[a], v)
			}
		}
	}
}

// TestSessionImpliesMatchesOneShot: every value-level implication query must
// answer identically through the session's shared solver.
func TestSessionImpliesMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(616263))
	for iter := 0; iter < 60; iter++ {
		spec := randomSpec(rng)
		enc := encode.Build(spec, encode.Options{})
		if ok, _ := IsValid(enc); !ok {
			continue
		}
		sess := NewSession(spec.Clone(), encode.Options{})
		for a := 0; a < spec.Schema().Len(); a++ {
			attr := relation.Attr(a)
			n := enc.ADomSize(attr)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i == j {
						continue
					}
					l := encode.OrderLit{Attr: attr, A1: i, A2: j}
					if want, got := Implies(enc, l), sess.Implies(l); want != got {
						t.Fatalf("iter %d: Implies(%s) session=%v one-shot=%v",
							iter, enc.FormatLit(l), got, want)
					}
				}
			}
		}
	}
}

// TestSessionResolveMatchesFromScratchNonInteractive: the default Resolve
// path (session engine) and Options.FromScratch must produce identical
// non-interactive outcomes on fixtures and random specifications.
func TestSessionResolveMatchesFromScratchNonInteractive(t *testing.T) {
	rng := rand.New(rand.NewSource(987))
	specs := []*model.Spec{fixtures.EdithSpec(), fixtures.GeorgeSpec()}
	for i := 0; i < 120; i++ {
		specs = append(specs, randomSpec(rng))
	}
	for i, spec := range specs {
		sessOut, err1 := Resolve(spec.Clone(), nil, Options{})
		scratchOut, err2 := Resolve(spec.Clone(), nil, Options{FromScratch: true})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("spec %d: error mismatch %v vs %v", i, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if sessOut.Valid != scratchOut.Valid || sessOut.Rounds != scratchOut.Rounds {
			t.Fatalf("spec %d: Valid/Rounds session=%v/%d scratch=%v/%d",
				i, sessOut.Valid, sessOut.Rounds, scratchOut.Valid, scratchOut.Rounds)
		}
		if len(sessOut.Resolved) != len(scratchOut.Resolved) {
			t.Fatalf("spec %d: resolved sizes session=%d scratch=%d",
				i, len(sessOut.Resolved), len(scratchOut.Resolved))
		}
		for a, v := range scratchOut.Resolved {
			if gv, ok := sessOut.Resolved[a]; !ok || !relation.Equal(gv, v) {
				t.Fatalf("spec %d attr %d: session=%v scratch=%v", i, a, sessOut.Resolved[a], v)
			}
		}
		if sessOut.Valid && sessOut.Session.Rebuilds != 1 {
			t.Fatalf("spec %d: non-interactive session should build exactly once, got %d",
				i, sessOut.Session.Rebuilds)
		}
	}
}

// TestSessionResolveInteractiveFixtures pins the full multi-round Se ⊕ Ot
// loop on the paper's entities: the session and from-scratch paths must
// reach the same final resolution, and the session must apply at least one
// incremental extension without extra solver builds.
func TestSessionResolveInteractiveFixtures(t *testing.T) {
	cases := []struct {
		name  string
		spec  func() *model.Spec
		truth relation.Tuple
	}{
		{"edith", fixtures.EdithSpec, fixtures.EdithTruth()},
		{"george", fixtures.GeorgeSpec, fixtures.GeorgeTruth()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oracle := func() Oracle { return &SimulatedUser{Truth: tc.truth} }
			sessOut, err := Resolve(tc.spec(), oracle(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			scratchOut, err := Resolve(tc.spec(), oracle(), Options{FromScratch: true})
			if err != nil {
				t.Fatal(err)
			}
			if sessOut.Valid != scratchOut.Valid {
				t.Fatalf("Valid session=%v scratch=%v", sessOut.Valid, scratchOut.Valid)
			}
			if len(sessOut.Resolved) != len(scratchOut.Resolved) {
				t.Fatalf("resolved sizes session=%d scratch=%d",
					len(sessOut.Resolved), len(scratchOut.Resolved))
			}
			for a, v := range scratchOut.Resolved {
				if gv, ok := sessOut.Resolved[a]; !ok || !relation.Equal(gv, v) {
					t.Fatalf("attr %d: session=%v scratch=%v", a, sessOut.Resolved[a], v)
				}
			}
			// The resolved tuple must be the ground truth (paper Examples 2/6).
			sch := tc.spec().Schema()
			for _, a := range sch.Attrs() {
				if v, ok := sessOut.Resolved[a]; ok && !relation.Equal(v, tc.truth[a]) {
					t.Fatalf("attr %s: resolved %v, truth %v", sch.Name(a), v, tc.truth[a])
				}
			}
			st := sessOut.Session
			if st.Rebuilds != 1 {
				t.Fatalf("interactive fixture run should keep one solver, rebuilds=%d", st.Rebuilds)
			}
			if sessOut.Interactions > 0 && st.Extends != sessOut.Interactions {
				t.Fatalf("extends=%d, interactions=%d: ⊕ Ot not incremental", st.Extends, sessOut.Interactions)
			}
		})
	}
}

// randomInteractiveCase draws one specification and a ground truth for it:
// a random tuple over the pools, occasionally out-of-domain.
func randomInteractiveCase(rng *rand.Rand) (*model.Spec, relation.Tuple) {
	spec := randomSpec(rng)
	sch := spec.Schema()
	truth := relation.NewTuple(sch)
	in := spec.TI.Inst
	for a := 0; a < sch.Len(); a++ {
		dom := in.ActiveDomain(relation.Attr(a))
		if len(dom) == 0 {
			continue
		}
		if rng.Intn(5) == 0 {
			truth[a] = relation.String(fmt.Sprintf("fresh%d", a))
		} else {
			truth[a] = dom[rng.Intn(len(dom))]
		}
	}
	return spec, truth
}

// TestSessionResolveInteractiveRandom compares the two engines across
// randomized interactive runs: validity must agree, and wherever both
// resolve an attribute the values must match.
func TestSessionResolveInteractiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(24680))
	checked, extended := 0, 0
	for iter := 0; iter < 120; iter++ {
		spec, truth := randomInteractiveCase(rng)
		oracle := func() Oracle { return &SimulatedUser{Truth: truth, MaxPerRound: 1} }
		sessOut, err1 := Resolve(spec.Clone(), oracle(), Options{MaxRounds: 4})
		scratchOut, err2 := Resolve(spec.Clone(), oracle(), Options{MaxRounds: 4, FromScratch: true})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("iter %d: error mismatch %v vs %v", iter, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if sessOut.Valid != scratchOut.Valid {
			t.Fatalf("iter %d: Valid session=%v scratch=%v", iter, sessOut.Valid, scratchOut.Valid)
		}
		if !sessOut.Valid {
			continue
		}
		for a, v := range scratchOut.Resolved {
			if gv, ok := sessOut.Resolved[a]; ok && !relation.Equal(gv, v) {
				t.Fatalf("iter %d attr %d: session=%v scratch=%v (common attr disagreement)",
					iter, a, gv, v)
			}
		}
		checked++
		extended += sessOut.Session.Extends
	}
	if checked < 40 {
		t.Fatalf("too few comparable runs: %d", checked)
	}
	if extended == 0 {
		t.Fatal("no incremental extensions exercised; generator too weak")
	}
	t.Logf("compared %d interactive runs, %d incremental extensions", checked, extended)
}

// fixpointCheckEngine is the session engine with a differential check at
// every deduction: the session's DeduceOrder must equal DeduceOrder on a
// fresh solver loaded with the session's current formula.
type fixpointCheckEngine struct {
	sessionEngine
	t       *testing.T
	iter    int
	rounds  int
	reloads int // deductions that found a learnt clause fired at level 0
}

func (e *fixpointCheckEngine) deduce(bool) *OrderSet {
	if _, exact := e.s.solver.Fixpoint(); !exact {
		e.reloads++
	}
	got, gotOK := e.s.DeduceOrder()
	enc := e.s.Encoding()
	want, wantOK := DeduceOrder(enc)
	if gotOK != wantOK || got.Len() != want.Len() || !got.Contains(want) {
		e.t.Fatalf("iter %d round %d: session deduced %d atoms (ok=%v), fresh solver %d (ok=%v)",
			e.iter, e.rounds, got.Len(), gotOK, want.Len(), wantOK)
	}
	e.rounds++
	return got
}

// TestSessionDeduceOrderIsFreshFixpoint pins the one Fig. 5 contract over
// TestSessionResolveInteractiveRandom's generator: after every round the
// session's deduction equals a fresh solver's, including after searches
// that learnt units — which the run must exercise at least once.
func TestSessionDeduceOrderIsFreshFixpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(24680))
	rounds, reloads := 0, 0
	for iter := 0; iter < 120; iter++ {
		spec, truth := randomInteractiveCase(rng)
		if spec.Validate() != nil {
			continue
		}
		eng := &fixpointCheckEngine{sessionEngine: sessionEngine{s: NewSession(spec, encode.Options{})}, t: t, iter: iter}
		oracle := &SimulatedUser{Truth: truth, MaxPerRound: 1}
		if _, err := resolveLoop(eng, spec.Schema(), oracle, Options{MaxRounds: 4}); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		rounds += eng.rounds
		reloads += eng.reloads
	}
	if reloads == 0 {
		t.Fatalf("no deduction followed a learnt unit in %d rounds; the reload branch went untested", rounds)
	}
	t.Logf("checked %d deductions, %d after a reload", rounds, reloads)
}

// TestSessionExtendMatchesRebuild drives the encoding-level ⊕ Ot delta
// against a full re-encode of the extended specification: validity must be
// identical, the exact implied order (NaiveDeduce) of the rebuild must be
// contained in the session's, and every extra session atom must be a
// null-lowest strengthening (the documented deviation).
func TestSessionExtendMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1357))
	incremental, rebuilt := 0, 0
	for iter := 0; iter < 150; iter++ {
		spec := randomSpec(rng)
		enc := encode.Build(spec, encode.Options{})
		if ok, _ := IsValid(enc); !ok {
			continue
		}
		sch := spec.Schema()
		answers := make(map[relation.Attr]relation.Value)
		a := relation.Attr(rng.Intn(sch.Len()))
		dom := spec.TI.Inst.ActiveDomain(a)
		if rng.Intn(3) == 0 || len(dom) == 0 {
			answers[a] = relation.String(fmt.Sprintf("new%d", iter))
		} else {
			answers[a] = dom[rng.Intn(len(dom))]
		}

		sess := NewSession(spec.Clone(), encode.Options{})
		if sess.Extend(answers) {
			incremental++
		} else {
			rebuilt++
		}
		ref := encode.Build(spec.Extend(answers), encode.Options{})

		refValid, _ := IsValid(ref)
		gotValid, _ := sess.IsValid()
		if refValid != gotValid {
			t.Fatalf("iter %d: after ⊕ IsValid session=%v rebuild=%v", iter, gotValid, refValid)
		}
		if !refValid {
			continue
		}
		refNd, _ := NaiveDeduce(ref)
		gotNd, _ := sess.NaiveDeduce()
		refSet, gotSet := atomSet(ref, refNd), atomSet(sess.Encoding(), gotNd)
		for k := range refSet {
			if !gotSet[k] {
				t.Fatalf("iter %d: rebuild implies %s, session does not", iter, k)
			}
		}
		for k := range gotSet {
			if !refSet[k] && !containsNull(k) {
				// Extra implications must stem from the null-lowest units the
				// incremental path adds for non-adom constants.
				t.Fatalf("iter %d: session implies %s beyond rebuild, not null-sourced", iter, k)
			}
		}

		// True-value deduction: everything the rebuild resolves, the session
		// resolves identically.
		refOd, _ := DeduceOrder(ref)
		gotOd, _ := sess.DeduceOrder()
		refTV := TrueValues(ref, refOd)
		gotTV := TrueValues(sess.Encoding(), gotOd)
		for at, v := range refTV {
			if gv, ok := gotTV[at]; !ok || !relation.Equal(gv, v) {
				t.Fatalf("iter %d attr %d: rebuild resolves %v, session %v", iter, at, v, gotTV[at])
			}
		}
	}
	if incremental == 0 {
		t.Fatal("no incremental extensions exercised")
	}
	t.Logf("⊕ Ot deltas: %d incremental, %d rebuilds", incremental, rebuilt)
}

func containsNull(s string) bool {
	for i := 0; i+4 <= len(s); i++ {
		if s[i:i+4] == "null" {
			return true
		}
	}
	return false
}

// diagnoseReference is the pre-session Diagnose: a fresh solver per
// minimization step, relying on the instances-first clause layout of a
// fresh Build, with the order groups installed as hard constraints. Kept
// here as the differential baseline.
func diagnoseReference(enc *encode.Encoding) (Conflict, bool) {
	all := enc.CNF().Clauses
	n := len(enc.Omega)
	if n > len(all) {
		n = len(all)
	}
	axioms, instClauses := all[n:], all[:n]

	nVars := enc.CNF().NVars
	unsat := func(keep []bool) bool {
		s := sat.New()
		for s.NumVars() < nVars {
			s.NewVar()
		}
		okAll := enc.CNF().AppendInto(s, len(all)) // order groups only, hard
		for _, cl := range axioms {
			if !s.AddClause(cl...) {
				okAll = false
			}
		}
		for i, cl := range instClauses {
			if keep[i] && !s.AddClause(cl...) {
				okAll = false
			}
		}
		if !okAll {
			return true
		}
		return s.Solve() == sat.StatusUnsat
	}

	keep := make([]bool, len(instClauses))
	for i := range keep {
		keep[i] = true
	}
	if !unsat(keep) {
		return Conflict{}, false
	}
	for i := range keep {
		keep[i] = false
		if !unsat(keep) {
			keep[i] = true
		}
	}
	var out Conflict
	for i, k := range keep {
		if k {
			out.Instances = append(out.Instances, enc.Omega[i])
		}
	}
	return out, true
}

// TestDiagnoseMatchesReference: the selector-based single-solver Diagnose
// must return exactly the core the per-step-rebuild baseline returns (same
// deletion order, same exact queries → same subset-minimal core).
func TestDiagnoseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	invalids := 0
	for iter := 0; iter < 400 && invalids < 40; iter++ {
		spec := randomSpec(rng)
		enc := encode.Build(spec, encode.Options{})
		if ok, _ := IsValid(enc); ok {
			// Also confirm both report "actually valid" identically.
			if _, refOK := diagnoseReference(enc); refOK {
				t.Fatalf("iter %d: reference diagnosed a valid spec", iter)
			}
			if _, gotOK := Diagnose(encode.Build(spec, encode.Options{})); gotOK {
				t.Fatalf("iter %d: Diagnose diagnosed a valid spec", iter)
			}
			continue
		}
		invalids++
		ref, refOK := diagnoseReference(enc)
		got, gotOK := Diagnose(encode.Build(spec, encode.Options{}))
		if refOK != gotOK {
			t.Fatalf("iter %d: ok mismatch ref=%v got=%v", iter, refOK, gotOK)
		}
		if len(ref.Instances) != len(got.Instances) {
			t.Fatalf("iter %d: core sizes ref=%d got=%d", iter, len(ref.Instances), len(got.Instances))
		}
		for i := range ref.Instances {
			r, g := ref.Instances[i], got.Instances[i]
			if r.Head != g.Head || len(r.Body) != len(g.Body) || r.Src != g.Src {
				t.Fatalf("iter %d instance %d: ref=%+v got=%+v", iter, i, r, g)
			}
		}
	}
	if invalids < 10 {
		t.Fatalf("too few invalid specs generated: %d", invalids)
	}
	t.Logf("compared %d minimal cores", invalids)
}

// TestSessionDeducedAtomsSoundAfterExtend checks the session's post-⊕
// deductions against the completion-semantics oracle on the extended
// specification: every deduced active-domain atom must hold in every valid
// completion.
func TestSessionDeducedAtomsSoundAfterExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(55555))
	checked := 0
	for iter := 0; iter < 120; iter++ {
		spec := randomSpec(rng)
		enc := encode.Build(spec, encode.Options{})
		if ok, _ := IsValid(enc); !ok {
			continue
		}
		sch := spec.Schema()
		a := relation.Attr(rng.Intn(sch.Len()))
		dom := spec.TI.Inst.ActiveDomain(a)
		if len(dom) == 0 {
			continue
		}
		answers := map[relation.Attr]relation.Value{a: dom[rng.Intn(len(dom))]}

		sess := NewSession(spec.Clone(), encode.Options{})
		if ok, _ := sess.IsValid(); !ok {
			continue
		}
		sess.Extend(answers)
		if ok, _ := sess.IsValid(); !ok {
			continue
		}
		chk, err := exact.New(sess.Spec())
		if err != nil || !chk.Valid() {
			continue
		}
		od, ok := sess.DeduceOrder()
		if !ok {
			t.Fatalf("iter %d: deduction failed on a valid extended spec", iter)
		}
		senc := sess.Encoding()
		for _, l := range od.Lits() {
			if !senc.InADom(l.Attr, l.A1) || !senc.InADom(l.Attr, l.A2) {
				continue // enumerator covers the active domain only
			}
			v1 := senc.Dom(l.Attr)[l.A1]
			v2 := senc.Dom(l.Attr)[l.A2]
			if !chk.Implies(l.Attr, v1, v2) {
				t.Fatalf("iter %d: session deduced %s after ⊕, not implied by completions",
					iter, senc.FormatLit(l))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no post-extension atoms checked; generator too weak")
	}
	t.Logf("verified %d post-⊕ deduced atoms against enumeration", checked)
}

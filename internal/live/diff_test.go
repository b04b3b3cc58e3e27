package live_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"conflictres"
	"conflictres/internal/constraint"
	"conflictres/internal/datagen"
	"conflictres/internal/fixtures"
	"conflictres/internal/reference"
	"conflictres/internal/relation"
)

// This file is the differential oracle for the live re-resolution layer:
// after every upsert, the incremental outcome (ExtendRows + exact-fixpoint
// deduction on a persistent session) must byte-match a from-scratch Resolve
// of the accumulated specification, and the pooled batch engine's answer as
// well. Any divergence — a learned clause leaking into the deduction, a
// stale slice surviving a skeleton rebuild, an edge mis-shifted during an
// extend — shows up as a fingerprint mismatch on the exact step that
// introduced it.

// rulesFor compiles a facade rule set from constraint values by
// round-tripping them through their textio format — the same path the
// generated rules.cr files take — so the differential suite can run against
// arbitrary datagen constraint pools.
func rulesFor(t testing.TB, sch *relation.Schema, sigma []constraint.Currency, gamma []constraint.CFD) *conflictres.RuleSet {
	t.Helper()
	cur := make([]string, len(sigma))
	for i, c := range sigma {
		cur[i] = c.Format(sch)
	}
	cfds := make([]string, len(gamma))
	for i, c := range gamma {
		cfds[i] = c.Format(sch)
	}
	rs, err := conflictres.CompileRules(sch, cur, cfds)
	if err != nil {
		t.Fatalf("compile rules: %v", err)
	}
	return rs
}

// fingerprint canonicalises a resolution outcome to a byte-comparable
// string: attributes in schema order, values in their quoted text form.
func fingerprint(sch *conflictres.Schema, valid bool, resolved map[conflictres.Attr]conflictres.Value, tuple conflictres.Tuple) string {
	if !valid {
		return "invalid"
	}
	var b strings.Builder
	b.WriteString("valid")
	for _, a := range sch.Attrs() {
		b.WriteByte('|')
		b.WriteString(sch.Name(a))
		b.WriteByte('=')
		if v, ok := resolved[a]; ok {
			b.WriteString(v.Quote())
		} else {
			b.WriteByte('?')
		}
	}
	b.WriteByte('#')
	for _, v := range tuple {
		b.WriteByte('|')
		b.WriteString(v.Quote())
	}
	return b.String()
}

// checkStep is the oracle proper: the live session's current state must be
// byte-identical to resolving its accumulated spec from scratch (fresh
// encoding, fresh solver) and to the pooled batch engine.
func checkStep(t *testing.T, rs *conflictres.RuleSet, ls *conflictres.LiveSession, label string) {
	t.Helper()
	st := ls.State()
	sch := rs.Schema()
	got := fingerprint(sch, st.Valid, st.Resolved, st.Tuple)

	scratch, err := reference.FromScratch(ls.Spec().Model())
	if err != nil {
		t.Fatalf("%s: from-scratch resolve: %v", label, err)
	}
	want := fingerprint(sch, scratch.Valid, scratch.Resolved, scratch.Tuple)
	if got != want {
		t.Fatalf("%s: live state diverged from from-scratch resolve\nlive:    %s\nscratch: %s", label, got, want)
	}

	pooled, err := rs.Resolve(ls.Spec(), nil)
	if err != nil {
		t.Fatalf("%s: pooled resolve: %v", label, err)
	}
	if p := fingerprint(sch, pooled.Valid, pooled.Resolved, pooled.Tuple); p != want {
		t.Fatalf("%s: pooled engine diverged from from-scratch resolve\npooled:  %s\nscratch: %s", label, p, want)
	}
}

func instanceRows(in *relation.Instance) []conflictres.Tuple {
	rows := make([]conflictres.Tuple, in.Len())
	for i := range rows {
		rows[i] = in.Tuple(relation.TupleID(i)).Clone()
	}
	return rows
}

// TestDifferentialFixtures feeds the paper's Edith and George entities
// (Figure 2) into live sessions one row at a time, checking the oracle
// after every step, and finishes each with an order-edge-only upsert.
func TestDifferentialFixtures(t *testing.T) {
	sch := fixtures.PersonSchema()
	rs := rulesFor(t, sch, fixtures.Sigma(), fixtures.Gamma())

	cases := []struct {
		name string
		inst *relation.Instance
	}{
		{"edith", fixtures.EdithInstance()},
		{"george", fixtures.GeorgeInstance()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows := instanceRows(tc.inst)
			ls, err := rs.NewLiveSession(rows[:1], nil)
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			defer ls.Close()
			checkStep(t, rs, ls, "create")
			for i := 1; i < len(rows); i++ {
				if _, err := ls.Upsert(rows[i:i+1], nil); err != nil {
					t.Fatalf("upsert row %d: %v", i, err)
				}
				checkStep(t, rs, ls, fmt.Sprintf("after row %d", i))
			}
			// An edge-only delta: assert t0's status precedes t1's. Whether
			// the extra order keeps the spec valid is the solver's business;
			// the oracle only requires that all three engines agree on it.
			if _, err := ls.Upsert(nil, []conflictres.LiveOrder{{Attr: "status", T1: 0, T2: 1}}); err != nil {
				t.Fatalf("edge-only upsert: %v", err)
			}
			checkStep(t, rs, ls, "after edge-only upsert")
			if st := ls.State(); st.Extends == 0 {
				t.Fatalf("no upsert took the incremental path (stats: extends=%d rebuilds=%d)", st.Extends, st.Rebuilds)
			}
		})
	}
}

// TestDifferentialRandomSweep runs the oracle over generated Person
// entities with a shrunken constraint pool (so extends and rebuilds both
// occur), feeding each entity's rows in a seeded random order and in
// random batch sizes.
func TestDifferentialRandomSweep(t *testing.T) {
	ds := datagen.Person(datagen.PersonConfig{
		Entities:       12,
		MinTuples:      2,
		MaxTuples:      6,
		Seed:           20260807,
		StatusChains:   3,
		StatusChainLen: 6,
		JobChains:      3,
		JobChainLen:    6,
		ACPool:         6,
	})
	rs := rulesFor(t, ds.Schema, ds.Sigma, ds.Gamma)

	entities := ds.Entities
	if testing.Short() && len(entities) > 5 {
		entities = entities[:5]
	}
	rng := rand.New(rand.NewSource(7))
	var extends, rebuilds int
	for _, e := range entities {
		rows := instanceRows(e.Spec.TI.Inst)
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })

		ls, err := rs.NewLiveSession(rows[:1], nil)
		if err != nil {
			t.Fatalf("entity %s: create: %v", e.ID, err)
		}
		for i := 1; i < len(rows); {
			n := 1 + rng.Intn(2)
			if i+n > len(rows) {
				n = len(rows) - i
			}
			if _, err := ls.Upsert(rows[i:i+n], nil); err != nil {
				ls.Close()
				t.Fatalf("entity %s: upsert rows %d..%d: %v", e.ID, i, i+n, err)
			}
			i += n
			checkStep(t, rs, ls, fmt.Sprintf("entity %s after %d rows", e.ID, i))
		}
		st := ls.State()
		extends += st.Extends
		rebuilds += st.Rebuilds
		ls.Close()
	}
	// The sweep must exercise the incremental path, not just fall back to
	// rebuilds on every delta — otherwise the oracle proves nothing about
	// ExtendRows.
	if extends == 0 {
		t.Fatalf("sweep never took the incremental path (extends=0 rebuilds=%d)", rebuilds)
	}
	t.Logf("sweep: %d incremental extends, %d rebuilds across %d entities", extends, rebuilds, len(entities))
}

// TestDifferentialNonMonotone drives a delta the incremental encoding
// cannot absorb — a row whose AC value is new on a CFD left-hand side — and
// pins that (a) the session fell back to a rebuild and (b) the rebuilt
// state is still byte-identical to from-scratch resolution, before and
// after one more monotone delta on the rebuilt session.
func TestDifferentialNonMonotone(t *testing.T) {
	sch := fixtures.PersonSchema()
	rs := rulesFor(t, sch, fixtures.Sigma(), fixtures.Gamma())
	rows := instanceRows(fixtures.EdithInstance())

	ls, err := rs.NewLiveSession(rows[:2], nil)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	defer ls.Close()
	checkStep(t, rs, ls, "create")

	// AC "999" appears in no ψ pattern and no prior tuple: ExtendRows must
	// refuse the delta and the session must rebuild its encoding.
	fresh := rows[2].Clone()
	ac, _ := sch.Attr("AC")
	fresh[ac] = relation.String("999")
	extended, err := ls.Upsert([]conflictres.Tuple{fresh}, nil)
	if err != nil {
		t.Fatalf("non-monotone upsert: %v", err)
	}
	if extended {
		t.Fatalf("upsert with a fresh CFD-LHS value reported an incremental extend")
	}
	if st := ls.State(); st.Rebuilds == 0 {
		t.Fatalf("non-monotone delta did not trigger a rebuild (stats: %+v)", st)
	}
	checkStep(t, rs, ls, "after rebuild")

	// The rebuilt session keeps serving incremental deltas.
	monotone := rows[0].Clone()
	kids, _ := sch.Attr("kids")
	monotone[kids] = relation.Int(1)
	extended, err = ls.Upsert([]conflictres.Tuple{monotone}, nil)
	if err != nil {
		t.Fatalf("post-rebuild upsert: %v", err)
	}
	if !extended {
		t.Fatalf("monotone delta after rebuild did not take the incremental path")
	}
	checkStep(t, rs, ls, "after post-rebuild extend")
}

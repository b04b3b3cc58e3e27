package encode

import (
	"math/rand"
	"testing"
	"testing/quick"

	"conflictres/internal/constraint"
	"conflictres/internal/fixtures"
	"conflictres/internal/model"
	"conflictres/internal/relation"
	"conflictres/internal/sat"
)

// TestDomainsIncludeCFDConstants pins which CFD constants extend the
// domains: those of live CFDs, whose X constants are active values or
// heads of live CFDs, and no others.
func TestDomainsIncludeCFDConstants(t *testing.T) {
	spec := fixtures.GeorgeSpec()
	sch := spec.Schema()
	// ψ3 is live through ψ2's AC constant 212 and adds its head 99999 to
	// dom(zip); ψ4 is live through that head; ψ5's zip constant is neither
	// active nor a live head.
	spec.Gamma = append(spec.Gamma,
		constraint.MustCFD(sch, `AC = "212" => zip = "99999"`),      // ψ3
		constraint.MustCFD(sch, `zip = "99999" => county = "Gone"`), // ψ4
		constraint.MustCFD(sch, `zip = "00000" => county = "Nope"`), // ψ5
	)
	enc := Build(spec, Options{})
	ac, city, zip, county := sch.MustAttr("AC"), sch.MustAttr("city"), sch.MustAttr("zip"), sch.MustAttr("county")
	// adom(E2.AC) = {401, 212, 312}: ψ2's 212 is active, ψ1's 213 is not.
	if got := enc.ADomSize(ac); got != 3 {
		t.Fatalf("|adom(AC)| = %d, want 3", got)
	}
	if got := len(enc.Dom(ac)); got != 3 {
		t.Fatalf("|dom(AC)| = %d, want 3 (dead ψ1 adds no constant)", got)
	}
	in := []struct {
		a    relation.Attr
		v    string
		want bool
	}{
		{ac, "213", false}, {city, "LA", false}, // ψ1: dead
		{ac, "212", true}, {city, "NY", true}, // ψ2: live, constants active
		{zip, "99999", true},    // ψ3: live, head joins dom(zip)
		{county, "Gone", true},  // ψ4: live through ψ3's head
		{zip, "00000", false},   // ψ5: dead
		{county, "Nope", false}, // ψ5: dead
	}
	for _, c := range in {
		if _, ok := enc.ValueIndex(c.a, relation.String(c.v)); ok != c.want {
			t.Errorf("%s in dom(%s) = %v, want %v", c.v, sch.Name(c.a), ok, c.want)
		}
	}
	if got, want := len(enc.Dom(zip)), enc.ADomSize(zip)+1; got != want {
		t.Errorf("|dom(zip)| = %d, want %d", got, want)
	}
}

func TestOmegaSources(t *testing.T) {
	spec := fixtures.EdithSpec()
	enc := Build(spec, Options{})
	var orders, currency, cfds int
	for _, inst := range enc.Omega {
		switch inst.Src.Kind {
		case SrcOrder:
			orders++
		case SrcCurrency:
			currency++
		case SrcCFD:
			cfds++
		}
	}
	// Null-lowest facts for kids (null ≺ 0, null ≺ 3).
	if orders != 2 {
		t.Fatalf("order facts = %d, want 2 (null-lowest on kids)", orders)
	}
	if currency == 0 || cfds == 0 {
		t.Fatalf("currency instances = %d, CFD instances = %d; both must be positive", currency, cfds)
	}
	// ψ1 and ψ2 each produce |adom(city)|-1 = 2 head instances.
	if cfds != 4 {
		t.Fatalf("CFD instances = %d, want 4", cfds)
	}
}

func TestInstanceExample7(t *testing.T) {
	// Paper Example 7: ϕ1 on (r1, r2) yields the fact working ≺ retired;
	// ϕ6 on (r1, r2) yields working≺retired → 212 ≺ 415.
	spec := fixtures.EdithSpec()
	enc := Build(spec, Options{})
	sch := spec.Schema()
	status, ac := sch.MustAttr("status"), sch.MustAttr("AC")
	wi, _ := enc.ValueIndex(status, relation.String("working"))
	ri, _ := enc.ValueIndex(status, relation.String("retired"))
	i212, _ := enc.ValueIndex(ac, relation.String("212"))
	i415, _ := enc.ValueIndex(ac, relation.String("415"))

	foundFact, foundCond := false, false
	for _, inst := range enc.Omega {
		if inst.Src.Kind != SrcCurrency {
			continue
		}
		if len(inst.Body) == 0 && inst.Head == (OrderLit{status, wi, ri}) {
			foundFact = true
		}
		if len(inst.Body) == 1 && inst.Body[0] == (OrderLit{status, wi, ri}) &&
			inst.Head == (OrderLit{ac, i212, i415}) {
			foundCond = true
		}
	}
	if !foundFact {
		t.Fatal("missing fact instance: working ≺ retired (ϕ1 on r1, r2)")
	}
	if !foundCond {
		t.Fatal("missing conditional instance: working≺retired → 212≺415 (ϕ6 on r1, r2)")
	}
}

func TestCFDEncodingExample8(t *testing.T) {
	// Paper Example 8: ψ1 for Edith yields two instance constraints with
	// body {212≺213, 415≺213} and heads NY≺LA, SFC≺LA.
	spec := fixtures.EdithSpec()
	enc := Build(spec, Options{})
	sch := spec.Schema()
	city := sch.MustAttr("city")
	li, _ := enc.ValueIndex(city, relation.String("LA"))

	heads := 0
	for _, inst := range enc.Omega {
		if inst.Src.Kind == SrcCFD && inst.Head.Attr == city && inst.Head.A2 == li {
			heads++
			if len(inst.Body) != 2 {
				t.Fatalf("ψ1 instance body size = %d, want 2 (212≺213, 415≺213)", len(inst.Body))
			}
		}
	}
	if heads != 2 {
		t.Fatalf("ψ1 head instances = %d, want 2 (NY≺LA, SFC≺LA)", heads)
	}
}

func TestProjectionDedup(t *testing.T) {
	// Duplicate tuples must not blow up the instance count.
	sch := relation.MustSchema("status", "job")
	in := relation.NewInstance(sch)
	for i := 0; i < 50; i++ {
		in.MustAdd(relation.Tuple{relation.String("working"), relation.String("a")})
		in.MustAdd(relation.Tuple{relation.String("retired"), relation.String("b")})
	}
	sigma := []constraint.Currency{
		constraint.MustCurrency(sch, `t1[status] = "working" & t2[status] = "retired" -> t1 <[status] t2`),
		constraint.MustCurrency(sch, `t1 <[status] t2 -> t1 <[job] t2`),
	}
	spec := model.NewSpec(model.NewTemporal(in), sigma, nil)
	enc := Build(spec, Options{})
	if len(enc.Omega) > 10 {
		t.Fatalf("instances = %d; projection dedup should collapse duplicates", len(enc.Omega))
	}
}

func TestSameProjectionPairNeedsTwoTuples(t *testing.T) {
	// A single tuple must not pair with itself.
	sch := relation.MustSchema("kids")
	in := relation.NewInstance(sch)
	in.MustAdd(relation.Tuple{relation.Int(1)})
	sigma := []constraint.Currency{
		constraint.MustCurrency(sch, `t1[kids] < t2[kids] -> t1 <[kids] t2`),
	}
	enc := Build(model.NewSpec(model.NewTemporal(in), sigma, nil), Options{})
	for _, inst := range enc.Omega {
		if inst.Src.Kind == SrcCurrency {
			t.Fatalf("unexpected instance %+v from a single tuple", inst)
		}
	}
}

func TestNullHeadVacuous(t *testing.T) {
	// A tuple with null job must not be forced above a real value.
	sch := relation.MustSchema("status", "job")
	in := relation.NewInstance(sch)
	in.MustAdd(relation.Tuple{relation.String("working"), relation.String("x")})
	in.MustAdd(relation.Tuple{relation.String("retired"), relation.Null})
	sigma := []constraint.Currency{
		constraint.MustCurrency(sch, `t1[status] = "working" & t2[status] = "retired" -> t1 <[status] t2`),
		constraint.MustCurrency(sch, `t1 <[status] t2 -> t1 <[job] t2`),
	}
	enc := Build(model.NewSpec(model.NewTemporal(in), sigma, nil), Options{})
	job := sch.MustAttr("job")
	ni, _ := enc.ValueIndex(job, relation.Null)
	for _, inst := range enc.Omega {
		if inst.Head.Attr == job && inst.Head.A2 == ni {
			t.Fatalf("instance ranks null above a real value: %+v", inst)
		}
	}
	// And the spec must be satisfiable.
	s := sat.New()
	if !enc.CNF().LoadInto(s) || s.Solve() != sat.StatusSat {
		t.Fatal("spec must be satisfiable")
	}
}

func TestEnsureLitAddsAsymmetry(t *testing.T) {
	// An attribute with no constraints has no active values, so none of its
	// pairs get variables during Build; EnsureLit must allocate on demand.
	sch := relation.MustSchema("city")
	in := relation.NewInstance(sch)
	in.MustAdd(relation.Tuple{relation.String("Newport")})
	in.MustAdd(relation.Tuple{relation.String("Chicago")})
	enc := Build(model.NewSpec(model.NewTemporal(in), nil, nil), Options{})
	city := sch.MustAttr("city")
	i1, _ := enc.ValueIndex(city, relation.String("Newport"))
	i2, _ := enc.ValueIndex(city, relation.String("Chicago"))
	before := len(enc.CNF().Clauses)
	l12 := enc.EnsureLit(OrderLit{city, i1, i2})
	l21 := enc.EnsureLit(OrderLit{city, i2, i1})
	if l12 == l21 {
		t.Fatal("distinct atoms must get distinct literals")
	}
	// Asserting both directions must now be unsatisfiable.
	c := enc.CNF().Clone()
	c.Add(l12)
	c.Add(l21)
	s := sat.New()
	if c.LoadInto(s) && s.Solve() == sat.StatusSat {
		t.Fatal("asymmetry must forbid both directions")
	}
	if len(enc.CNF().Clauses) == before {
		t.Fatal("EnsureLit must have appended an asymmetry clause")
	}
	// Idempotent second call.
	if enc.EnsureLit(OrderLit{city, i1, i2}) != l12 {
		t.Fatal("EnsureLit must be stable")
	}
}

func TestSparseModeStillSound(t *testing.T) {
	// Force the sparse transitivity path with a tiny cap and check the
	// paper example still validates and deduces the same facts as the full
	// encoding (for this instance the chains are short enough that sparse
	// closure covers everything).
	spec := fixtures.EdithSpec()
	full := Build(spec, Options{TransitivityCap: 50})
	sparse := Build(spec, Options{TransitivityCap: 2})
	if !sparse.Sparse {
		t.Fatal("cap 2 must trigger the sparse path")
	}
	for _, enc := range []*Encoding{full, sparse} {
		s := sat.New()
		if !enc.CNF().LoadInto(s) || s.Solve() != sat.StatusSat {
			t.Fatal("Edith must stay valid under both encodings")
		}
	}
}

func TestFormatLit(t *testing.T) {
	spec := fixtures.EdithSpec()
	enc := Build(spec, Options{})
	sch := spec.Schema()
	status := sch.MustAttr("status")
	wi, _ := enc.ValueIndex(status, relation.String("working"))
	ri, _ := enc.ValueIndex(status, relation.String("retired"))
	got := enc.FormatLit(OrderLit{status, wi, ri})
	if got != "working <[status] retired" {
		t.Fatalf("FormatLit = %q", got)
	}
}

func TestIntFloatValuesCollapse(t *testing.T) {
	sch := relation.MustSchema("kids")
	in := relation.NewInstance(sch)
	in.MustAdd(relation.Tuple{relation.Int(2)})
	in.MustAdd(relation.Tuple{relation.Float(2.0)})
	enc := Build(model.NewSpec(model.NewTemporal(in), nil, nil), Options{})
	if got := enc.ADomSize(0); got != 1 {
		t.Fatalf("2 and 2.0 must collapse to one domain value, got %d", got)
	}
}

func TestQuickEncodingInvariants(t *testing.T) {
	// Property: over random small specs, every allocated variable maps back
	// to a well-formed atom, all Omega atoms stay inside their attribute
	// domains, and no emitted clause is empty.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sch := relation.MustSchema("a", "b")
		in := relation.NewInstance(sch)
		pool := []relation.Value{
			relation.String("x"), relation.String("y"), relation.String("z"), relation.Null,
		}
		for i := 0; i < 2+rng.Intn(4); i++ {
			in.MustAdd(relation.Tuple{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]})
		}
		sigma := []constraint.Currency{
			constraint.MustCurrency(sch, `t1 <[a] t2 -> t1 <[b] t2`),
			constraint.MustCurrency(sch, `t1[a] != t2[a] -> t1 <[a] t2`),
		}
		enc := Build(model.NewSpec(model.NewTemporal(in), sigma, nil), Options{})
		for v := 0; v < enc.NumVars(); v++ {
			p := enc.Pair(sat.Var(v))
			if p.A1 == p.A2 || p.A1 >= len(enc.Dom(p.Attr)) || p.A2 >= len(enc.Dom(p.Attr)) {
				return false
			}
			if l, ok := enc.LitFor(p); !ok || l.Var() != sat.Var(v) {
				return false
			}
		}
		// Atoms outside the schema or the domains have no variable.
		for _, l := range []OrderLit{{0, -1, -2}, {1, 0, len(enc.Dom(1)) + 3}, {0, len(enc.Dom(0)), 0}, {2, 0, 1}} {
			if _, ok := enc.LitFor(l); ok {
				return false
			}
		}
		for _, inst := range enc.Omega {
			for _, l := range append(append([]OrderLit{}, inst.Body...), inst.Head) {
				if l.A1 == l.A2 || l.A1 >= len(enc.Dom(l.Attr)) || l.A2 >= len(enc.Dom(l.Attr)) {
					return false
				}
				// Null never appears in a currency atom.
				if enc.Dom(l.Attr)[l.A1].IsNull() && len(inst.Body) > 0 {
					// allowed only as a fact head (null-lowest); conditional
					// instances must not involve null.
					return false
				}
			}
		}
		for _, cl := range enc.CNF().Clauses {
			if len(cl) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

package conflictres

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"conflictres/internal/fixtures"
)

func TestParseStrategy(t *testing.T) {
	names := StrategyNames()
	if len(names) != 4 || names[0] != "sat" {
		t.Fatalf("StrategyNames = %v; want four names, default first", names)
	}
	for _, name := range names {
		s, err := ParseStrategy(name)
		if err != nil {
			t.Fatalf("ParseStrategy(%q): %v", name, err)
		}
		if s.String() != name {
			t.Errorf("ParseStrategy(%q).String() = %q", name, s.String())
		}
	}
	if s, err := ParseStrategy(""); err != nil || s != StrategySAT {
		t.Errorf("empty mode = %v, %v; want the SAT default", s, err)
	}
	if _, err := ParseStrategy("most-recent"); err == nil {
		t.Error("unknown mode must not parse")
	}
}

// freeSpec builds a constraint-free two-column specification with optional
// per-row source tags (empty string leaves a row untagged).
func freeSpec(t *testing.T, rows []Tuple, sources []string) *Spec {
	t.Helper()
	in := NewInstance(MustSchema("name", "city"))
	for i, r := range rows {
		src := ""
		if sources != nil {
			src = sources[i]
		}
		if _, err := in.AddSourced(r, src); err != nil {
			t.Fatal(err)
		}
	}
	spec, err := NewSpec(in, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// sameOutcome compares the fields that define a resolution outcome.
func sameOutcome(a, b *Result) bool {
	return a.Valid == b.Valid &&
		reflect.DeepEqual(a.Tuple, b.Tuple) &&
		reflect.DeepEqual(a.Resolved, b.Resolved)
}

// TestModeUniformByteIdentical pins the compatibility invariant: with uniform
// trust — no trust mapping, or source tags without one, or a trust overlay on
// an unsourced instance — every result is identical to the historical
// trust-free path.
func TestModeUniformByteIdentical(t *testing.T) {
	base, err := Resolve(&Spec{m: fixtures.EdithSpec()}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Explicitly requesting the default strategy changes nothing.
	explicit, err := Resolve(&Spec{m: fixtures.EdithSpec()}, nil,
		Options{Mode: ResolutionMode{Strategy: StrategySAT}})
	if err != nil {
		t.Fatal(err)
	}
	if !sameOutcome(base, explicit) {
		t.Error("explicit sat mode diverged from the default")
	}

	// Source tags with no trust mapping: still uniform, still identical.
	sourced := &Spec{m: fixtures.EdithSpec()}
	for i, id := range sourced.Instance().TupleIDs() {
		sourced.Instance().SetSource(id, fmt.Sprintf("src_%d", i))
	}
	res, err := Resolve(sourced, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameOutcome(base, res) {
		t.Error("source tags without a trust mapping changed the outcome")
	}

	// A trust overlay over an unsourced instance: no tag matches, identical.
	res, err = Resolve(&Spec{m: fixtures.EdithSpec()}, nil,
		Options{Mode: ResolutionMode{Trust: []string{`"hq" > "mirror"`}}})
	if err != nil {
		t.Fatal(err)
	}
	if !sameOutcome(base, res) {
		t.Error("trust overlay on an unsourced instance changed the outcome")
	}
}

// TestModeWeightedTie pins the trust preference layer: when deduction leaves
// an attribute open, the candidate from the strictly most trusted source
// fills the current tuple — and only the tuple, never Resolved.
func TestModeWeightedTie(t *testing.T) {
	rows := []Tuple{
		{String("e"), String("LA")},
		{String("e"), String("NY")},
	}
	spec := freeSpec(t, rows, []string{"mirror", "hq"})
	nameA, cityA := Attr(0), Attr(1)

	// Without trust the city tie stays open.
	base, err := Resolve(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := base.Resolved[cityA]; ok {
		t.Fatal("city must be undetermined without trust")
	}
	if !base.Tuple[cityA].IsNull() {
		t.Fatalf("untrusted tie filled the tuple with %v", base.Tuple[cityA])
	}

	// hq > mirror: hq's value fills the tuple; Resolved stays open.
	res, err := Resolve(spec, nil, Options{Mode: ResolutionMode{Trust: []string{`"hq" > "mirror"`}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tuple[cityA]; got.String() != "NY" {
		t.Errorf("tuple city = %v, want the trusted NY", got)
	}
	if _, ok := res.Resolved[cityA]; ok {
		t.Error("trust fill is a preference, not a deduction: Resolved must stay open")
	}
	if got, ok := res.Resolved[nameA]; !ok || got.String() != "e" {
		t.Errorf("agreeing attribute not resolved: %v", got)
	}

	// Flipped trust flips the pick.
	res, err = Resolve(spec, nil, Options{Mode: ResolutionMode{Trust: []string{`"mirror" > "hq"`}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tuple[cityA]; got.String() != "LA" {
		t.Errorf("tuple city = %v, want LA under flipped trust", got)
	}

	// Equal trust ties: nothing fills.
	res, err = Resolve(spec, nil, Options{Mode: ResolutionMode{
		Trust: []string{`"hq" = 0.5`, `"mirror" = 0.5`}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tuple[cityA].IsNull() {
		t.Errorf("equal-trust tie must stay open, got %v", res.Tuple[cityA])
	}

	// Null never wins: the most trusted source observing nothing does not
	// beat a lesser source's actual observation.
	nullRows := []Tuple{
		{String("e"), String("LA")},
		{String("e"), Null},
	}
	nspec := freeSpec(t, nullRows, []string{"mirror", "hq"})
	res, err = Resolve(nspec, nil, Options{Mode: ResolutionMode{Trust: []string{`"hq" > "mirror"`}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tuple[cityA]; got.String() != "LA" {
		t.Errorf("null observation won over a real one: %v", got)
	}
}

// TestModeTrustCycle pins the documented cycle semantics end to end: cyclic
// preference chains compile and resolve (no hang), cycle members tie, and a
// cycle still outranks the sources strictly below it.
func TestModeTrustCycle(t *testing.T) {
	rows := []Tuple{
		{String("e"), String("LA")},
		{String("e"), String("NY")},
	}
	cityA := Attr(1)

	// Both sources on one cycle: equally trusted, the tie stays open.
	spec := freeSpec(t, rows, []string{"a", "b"})
	res, err := Resolve(spec, nil, Options{Mode: ResolutionMode{
		Trust: []string{`"a" > "b"`, `"b" > "a"`}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tuple[cityA].IsNull() {
		t.Errorf("cycle members must tie, got %v", res.Tuple[cityA])
	}

	// Cycle {a, b} above sink c: a cycle member's observation wins over c's.
	spec = freeSpec(t, rows, []string{"c", "b"})
	res, err = Resolve(spec, nil, Options{Mode: ResolutionMode{
		Trust: []string{`"a" > "b"`, `"b" > "a"`, `"a" > "c"`}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tuple[cityA]; got.String() != "NY" {
		t.Errorf("cycle member lost to its sink: %v", got)
	}
}

// TestFastPathFallsBackUnderConstraints: an entity with constraints resolves
// through the full framework whatever strategy is requested.
func TestFastPathFallsBackUnderConstraints(t *testing.T) {
	base, err := Resolve(&Spec{m: fixtures.EdithSpec()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{StrategyLatestWriterWins, StrategyHighestTrust, StrategyConsensus} {
		res, err := Resolve(&Spec{m: fixtures.EdithSpec()}, nil,
			Options{Mode: ResolutionMode{Strategy: strat}})
		if err != nil {
			t.Fatal(err)
		}
		if !sameOutcome(base, res) {
			t.Errorf("%v on a constrained entity diverged from the framework", strat)
		}
	}
}

// TestFastPathsAgreeWithSAT sweeps random constraint-free entities: wherever
// the framework deduces a true value, every degenerate strategy must pick the
// same value (they only differ on ties the framework leaves open).
func TestFastPathsAgreeWithSAT(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	vals := []Value{String("a"), String("b"), String("c"), Null}
	srcs := []string{"", "hq", "mirror", "scrape"}
	trust := []string{`"hq" > "mirror" > "scrape"`}
	for iter := 0; iter < 60; iter++ {
		nRows := 1 + rng.Intn(4)
		rows := make([]Tuple, nRows)
		sources := make([]string, nRows)
		for i := range rows {
			rows[i] = Tuple{vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]}
			sources[i] = srcs[rng.Intn(len(srcs))]
		}
		spec := freeSpec(t, rows, sources)
		sat, err := Resolve(spec, nil, Options{Mode: ResolutionMode{Trust: trust}})
		if err != nil {
			t.Fatal(err)
		}
		if !sat.Valid {
			t.Fatalf("constraint-free entity invalid: %v", rows)
		}
		for _, strat := range []Strategy{StrategyLatestWriterWins, StrategyHighestTrust, StrategyConsensus} {
			res, err := Resolve(spec, nil, Options{Mode: ResolutionMode{Strategy: strat, Trust: trust}})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Valid || res.Rounds != 1 {
				t.Fatalf("%v: valid=%v rounds=%d", strat, res.Valid, res.Rounds)
			}
			for a, want := range sat.Resolved {
				if got := res.Tuple[a]; !reflect.DeepEqual(got, want) {
					t.Errorf("iter %d %v: attr %d = %v, framework deduced %v (rows %v)",
						iter, strat, a, got, want, rows)
				}
			}
		}
	}
}

// TestFastPickSemantics pins each degenerate strategy's documented pick on
// hand-built cases.
func TestFastPickSemantics(t *testing.T) {
	cityA := Attr(1)
	resolve := func(spec *Spec, mode ResolutionMode) *Result {
		t.Helper()
		res, err := Resolve(spec, nil, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Latest writer wins skips trailing nulls.
	spec := freeSpec(t, []Tuple{
		{String("e"), String("LA")},
		{String("e"), String("NY")},
		{String("e"), Null},
	}, nil)
	res := resolve(spec, ResolutionMode{Strategy: StrategyLatestWriterWins})
	if got := res.Tuple[cityA]; got.String() != "NY" {
		t.Errorf("latest-writer-wins picked %v, want NY", got)
	}
	if got := res.Resolved[cityA]; got.String() != "NY" {
		t.Errorf("fast paths resolve every attribute; Resolved[city] = %v", got)
	}

	// Highest trust beats arrival order; equal trust falls to the latest writer.
	spec = freeSpec(t, []Tuple{
		{String("e"), String("NY")},
		{String("e"), String("LA")},
	}, []string{"hq", "mirror"})
	mode := ResolutionMode{Strategy: StrategyHighestTrust, Trust: []string{`"hq" > "mirror"`}}
	if got := resolve(spec, mode).Tuple[cityA]; got.String() != "NY" {
		t.Errorf("highest-trust picked %v, want the trusted NY", got)
	}
	spec = freeSpec(t, []Tuple{
		{String("e"), String("NY")},
		{String("e"), String("LA")},
	}, []string{"hq", "hq"})
	if got := resolve(spec, mode).Tuple[cityA]; got.String() != "LA" {
		t.Errorf("equal-trust tie must fall to the latest writer, got %v", got)
	}

	// Consensus: frequency first, then trust, then the latest writer.
	spec = freeSpec(t, []Tuple{
		{String("e"), String("LA")},
		{String("e"), String("NY")},
		{String("e"), String("LA")},
	}, nil)
	res = resolve(spec, ResolutionMode{Strategy: StrategyConsensus})
	if got := res.Tuple[cityA]; got.String() != "LA" {
		t.Errorf("consensus picked %v, want the majority LA", got)
	}
	spec = freeSpec(t, []Tuple{
		{String("e"), String("NY")},
		{String("e"), String("LA")},
	}, []string{"hq", "mirror"})
	res = resolve(spec, ResolutionMode{Strategy: StrategyConsensus, Trust: []string{`"hq" > "mirror"`}})
	if got := res.Tuple[cityA]; got.String() != "NY" {
		t.Errorf("consensus frequency tie must fall to trust, got %v", got)
	}
	spec = freeSpec(t, []Tuple{
		{String("e"), String("NY")},
		{String("e"), String("LA")},
	}, nil)
	res = resolve(spec, ResolutionMode{Strategy: StrategyConsensus})
	if got := res.Tuple[cityA]; got.String() != "LA" {
		t.Errorf("consensus full tie must fall to the latest writer, got %v", got)
	}
}

// TestSessionModeSticky: a session created with a mode keeps applying it to
// every Result snapshot.
func TestSessionModeSticky(t *testing.T) {
	spec := freeSpec(t, []Tuple{
		{String("e"), String("LA")},
		{String("e"), String("NY")},
	}, nil)
	sess, err := NewSessionMode(spec, ResolutionMode{Strategy: StrategyLatestWriterWins})
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Result().Tuple[Attr(1)]; got.String() != "NY" {
		t.Errorf("session result = %v, want the latest-writer NY", got)
	}
	// The strategy picks the Result only: deduction and the next question
	// come from the formula, as in a SAT-mode session.
	satSess, err := NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Complete() || !reflect.DeepEqual(sess.Deduce(), satSess.Deduce()) {
		t.Errorf("degenerate-mode session deduced %v (complete=%v), SAT mode %v",
			sess.Deduce(), sess.Complete(), satSess.Deduce())
	}
	sug, err := sess.Suggest()
	if err != nil {
		t.Fatal(err)
	}
	if satSug, _ := satSess.Suggest(); !reflect.DeepEqual(sug.Attrs, satSug.Attrs) || len(sug.Attrs) == 0 {
		t.Errorf("degenerate-mode session suggests %v, SAT mode %v", sug.Attrs, satSug.Attrs)
	}

	// A session with a trust overlay fills its Result tuple the same way the
	// one-shot path does.
	spec = freeSpec(t, []Tuple{
		{String("e"), String("LA")},
		{String("e"), String("NY")},
	}, []string{"mirror", "hq"})
	sess, err = NewSessionMode(spec, ResolutionMode{Trust: []string{`"hq" > "mirror"`}})
	if err != nil {
		t.Fatal(err)
	}
	res := sess.Result()
	if got := res.Tuple[Attr(1)]; got.String() != "NY" {
		t.Errorf("session trust fill = %v, want NY", got)
	}
	if _, ok := res.Resolved[Attr(1)]; ok {
		t.Error("session trust fill must not claim a deduction")
	}
}

// TestLiveSessionModeSticky: live sessions pin their mode at creation and
// apply it across upserts; the snapshot agrees with resolving the accumulated
// spec from scratch under the same mode.
func TestLiveSessionModeSticky(t *testing.T) {
	rules, err := CompileRulesTrust(MustSchema("name", "city"), nil, nil,
		[]string{`"hq" > "mirror"`})
	if err != nil {
		t.Fatal(err)
	}
	mode := ResolutionMode{Strategy: StrategyHighestTrust}
	ls, err := rules.NewLiveSessionMode(
		[]Tuple{{String("e"), String("NY")}}, []string{"hq"}, nil, mode)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()
	if got := ls.State().Tuple[Attr(1)]; got.String() != "NY" {
		t.Fatalf("initial state = %v", got)
	}
	// A less trusted writer arrives later: highest-trust keeps hq's value.
	if _, err := ls.UpsertSourced([]Tuple{{String("e"), String("LA")}}, []string{"mirror"}, nil); err != nil {
		t.Fatal(err)
	}
	st := ls.State()
	if got := st.Tuple[Attr(1)]; got.String() != "NY" {
		t.Errorf("highest-trust state = %v, want hq's NY", got)
	}
	// Differential: from-scratch resolution of the accumulated spec under the
	// same mode agrees with the live snapshot.
	res, err := Resolve(ls.Spec(), nil, Options{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Tuple, st.Tuple) || !reflect.DeepEqual(res.Resolved, st.Resolved) {
		t.Errorf("live state %v / %v diverged from from-scratch %v / %v",
			st.Tuple, st.Resolved, res.Tuple, res.Resolved)
	}
}

// TestBatchAndDatasetModes: the batch facade threads the mode through
// Options like the single-entity path.
func TestBatchMode(t *testing.T) {
	rules, err := CompileRules(MustSchema("name", "city"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Instance {
		in := NewInstance(rules.Schema())
		in.MustAdd(Tuple{String("e"), String("LA")})
		in.MustAdd(Tuple{String("e"), String("NY")})
		return in
	}
	br, err := ResolveBatch(rules, []*Instance{mk(), mk()}, BatchOptions{
		Options: Options{Mode: ResolutionMode{Strategy: StrategyLatestWriterWins}}})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range br.Results {
		if res == nil {
			t.Fatalf("entity %d: %v", i, br.Errs[i])
		}
		if got := res.Tuple[Attr(1)]; got.String() != "NY" {
			t.Errorf("entity %d = %v, want NY", i, got)
		}
	}
}

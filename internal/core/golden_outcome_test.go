package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"conflictres/internal/constraint"
	"conflictres/internal/datagen"
	"conflictres/internal/encode"
	"conflictres/internal/fixtures"
	"conflictres/internal/model"
	"conflictres/internal/relation"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/outcomes.golden")

// goldenCase is one entity of the outcome suite, with the rule set and
// ground truth it is resolved under.
type goldenCase struct {
	name  string
	sigma []constraint.Currency
	gamma []constraint.CFD
	spec  *model.Spec
	truth relation.Tuple
}

// goldenCases gathers the suite's entities: the fleet's bulk mix, Person
// under its default pools, NBA, CAREER and the paper's two fixtures.
func goldenCases() []goldenCase {
	var out []goldenCase
	add := func(prefix string, ds *datagen.Dataset, n int) {
		for _, e := range ds.Entities[:min(n, len(ds.Entities))] {
			out = append(out, goldenCase{prefix + "/" + e.ID, ds.Sigma, ds.Gamma, e.Spec, e.Truth})
		}
	}
	add("bulk", datagen.Person(datagen.PersonConfig{
		Entities: 10, MinTuples: 2, MaxTuples: 40, Seed: 7,
		Skew:   datagen.SkewZipf,
		ACPool: 24, StatusChains: 6, StatusChainLen: 8,
		JobChains: 6, JobChainLen: 8,
	}), 10)
	add("person", datagen.Person(datagen.PersonConfig{Entities: 4, MinTuples: 2, MaxTuples: 12, Seed: 3}), 4)
	add("nba", datagen.NBA(datagen.NBAConfig{Players: 4, Seed: 5, MaxSeasons: 4, MaxRows: 3}), 4)
	add("career", datagen.Career(datagen.CareerConfig{Persons: 4, Seed: 9, MaxPapers: 16}), 4)
	out = append(out,
		goldenCase{"fixture/edith", fixtures.Sigma(), fixtures.Gamma(), fixtures.EdithSpec(), fixtures.EdithTruth()},
		goldenCase{"fixture/george", fixtures.Sigma(), fixtures.Gamma(), fixtures.GeorgeSpec(), fixtures.GeorgeTruth()})
	return out
}

// TestGoldenOutcomes pins what the engine decides, entity by entity: the
// interactive resolution under a simulated user (validity, resolved values,
// tuple, every round's suggestion), the non-interactive resolution, and a
// change-data-capture schedule that grows the entity from half its tuples,
// ending with an order edge that contradicts a deduced order and the
// Diagnose core it leaves. Every entity runs through the unpooled session,
// a pooled Pipeline and the from-scratch engine; all three must agree with
// each other and with testdata/outcomes.golden. Run with -update to rewrite
// the file after a deliberate semantic change.
func TestGoldenOutcomes(t *testing.T) {
	var b strings.Builder
	for _, c := range goldenCases() {
		fmt.Fprintf(&b, "== %s (%d tuples)\n", c.name, c.spec.TI.Inst.Len())
		b.WriteString(goldenResolve(t, c))
		b.WriteString(goldenRows(t, c))
	}
	got := b.String()
	path := filepath.Join("testdata", "outcomes.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("outcomes differ from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}

// goldenResolve renders the interactive and the non-interactive
// resolution of one case, after checking the three engines agree.
func goldenResolve(t *testing.T, c goldenCase) string {
	t.Helper()
	sch := c.spec.Schema()
	var b strings.Builder
	for _, interactive := range []bool{true, false} {
		var texts []string
		for _, opts := range []Options{{}, {Pipeline: NewPipeline(c.sigma, c.gamma, encode.Options{})}, {FromScratch: true}} {
			var oracle Oracle
			if interactive {
				oracle = &SimulatedUser{Truth: c.truth, MaxPerRound: 1}
			}
			out, err := Resolve(c.spec, oracle, opts)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			texts = append(texts, formatOutcome(sch, out, interactive))
		}
		for i := 1; i < len(texts); i++ {
			if texts[i] != texts[0] {
				t.Fatalf("%s: engine %d disagrees:\n%s\nwant:\n%s", c.name, i, texts[i], texts[0])
			}
		}
		b.WriteString(texts[0])
	}
	return b.String()
}

func formatOutcome(sch *relation.Schema, out *Outcome, interactive bool) string {
	var b strings.Builder
	mode := "auto"
	if interactive {
		mode = "user"
	}
	fmt.Fprintf(&b, "%s: valid=%v invalid_input=%v rounds=%d interactions=%d\n",
		mode, out.Valid, out.InvalidInput, out.Rounds, out.Interactions)
	if !out.Valid {
		return b.String()
	}
	fmt.Fprintf(&b, "  resolved %s\n", formatValues(sch, out.Resolved))
	fmt.Fprintf(&b, "  tuple %s\n", formatTuple(out.Tuple))
	for i, s := range out.Suggestions {
		fmt.Fprintf(&b, "  suggest[%d] attrs=%s derivable=%s\n", i, formatAttrs(sch, s.Attrs), formatAttrs(sch, s.Derivable))
		for _, a := range s.Attrs {
			fmt.Fprintf(&b, "    cand %s %s\n", sch.Name(a), formatTuple(s.Candidates[a]))
		}
		for _, r := range s.Rules {
			fmt.Fprintf(&b, "    rule %s\n", r.Format(sch))
		}
	}
	return b.String()
}

// goldenRows grows the case's entity through ExtendRows on a pooled and an
// unpooled session and renders each step's state; the final step adds an
// order edge against a deduced order, and the Diagnose core of the result
// is rendered from a fresh build.
func goldenRows(t *testing.T, c goldenCase) string {
	t.Helper()
	in := c.spec.TI.Inst
	n := in.Len()
	start := (n + 1) / 2
	prefix := relation.NewInstance(in.Schema())
	for id := 0; id < start; id++ {
		prefix.MustAdd(in.Tuple(relation.TupleID(id)))
	}
	ti := model.NewTemporal(prefix)
	edgesIn := func(lo, hi int) []model.OrderEdge {
		var out []model.OrderEdge
		for _, e := range c.spec.TI.Edges {
			m := int(max(e.T1, e.T2))
			if m >= lo && m < hi {
				out = append(out, e)
			}
		}
		return out
	}
	ti.Edges = edgesIn(0, start)
	base := model.NewSpec(ti, c.sigma, c.gamma)

	step := max(1, (n-start+2)/3)
	var texts []string
	var final *model.Spec
	for _, pipe := range []*Pipeline{nil, NewPipeline(c.sigma, c.gamma, encode.Options{})} {
		var s *Session
		if pipe == nil {
			s = NewSession(base, encode.Options{})
		} else {
			s = pipe.NewSession(base)
		}
		var b strings.Builder
		b.WriteString(formatState(s, start))
		for lo := start; lo < n; lo += step {
			hi := min(n, lo+step)
			var rows []relation.Tuple
			for id := lo; id < hi; id++ {
				rows = append(rows, in.Tuple(relation.TupleID(id)))
			}
			s.ExtendRows(rows, edgesIn(lo, hi))
			b.WriteString(formatState(s, hi))
		}
		if edge, ok := contradictingEdge(s); ok {
			s.ExtendRows(nil, []model.OrderEdge{edge})
			fmt.Fprintf(&b, "edge %s: t%d <= t%d\n", in.Schema().Name(edge.Attr), edge.T1, edge.T2)
			b.WriteString(formatState(s, n))
		}
		final = s.Spec()
		texts = append(texts, b.String())
	}
	if texts[1] != texts[0] {
		t.Fatalf("%s: pooled rows schedule disagrees:\n%s\nwant:\n%s", c.name, texts[1], texts[0])
	}
	var b strings.Builder
	b.WriteString(texts[0])
	fresh := NewSession(final, encode.Options{})
	if ok, _ := fresh.IsValid(); !ok {
		if core, ok := fresh.Diagnose(); ok {
			lines := strings.Split(strings.TrimSuffix(core.Format(fresh.Encoding()), "\n"), "\n")
			sort.Strings(lines[1:])
			fmt.Fprintf(&b, "diagnose %s\n", strings.Join(lines, "\n"))
		}
	}
	return b.String()
}

// formatState renders a session's validity and deduced true values.
func formatState(s *Session, tuples int) string {
	sch := s.Spec().Schema()
	ok, _ := s.IsValid()
	if !ok {
		return fmt.Sprintf("rows[%d]: valid=false\n", tuples)
	}
	od, _ := s.DeduceOrder()
	return fmt.Sprintf("rows[%d]: valid=true resolved %s\n", tuples, formatValues(sch, TrueValues(s.Encoding(), od)))
}

// contradictingEdge finds the first deduced order a1 ≺ a2 between two
// active values held by data tuples and returns the edge that ranks a
// tuple holding a2 no higher than one holding a1.
func contradictingEdge(s *Session) (model.OrderEdge, bool) {
	enc := s.Encoding()
	if ok, _ := s.IsValid(); !ok {
		return model.OrderEdge{}, false
	}
	od, _ := s.DeduceOrder()
	in := enc.Spec.TI.Inst
	holder := func(a relation.Attr, v relation.Value) (relation.TupleID, bool) {
		for _, id := range in.TupleIDs() {
			if relation.Equal(in.Value(id, a), v) {
				return id, true
			}
		}
		return 0, false
	}
	for _, l := range od.Lits() {
		v1, v2 := enc.Dom(l.Attr)[l.A1], enc.Dom(l.Attr)[l.A2]
		if v1.IsNull() || v2.IsNull() {
			continue
		}
		t1, ok1 := holder(l.Attr, v1)
		t2, ok2 := holder(l.Attr, v2)
		if ok1 && ok2 {
			return model.OrderEdge{Attr: l.Attr, T1: t2, T2: t1}, true
		}
	}
	return model.OrderEdge{}, false
}

func formatValues(sch *relation.Schema, m map[relation.Attr]relation.Value) string {
	attrs := make([]relation.Attr, 0, len(m))
	for a := range m {
		attrs = append(attrs, a)
	}
	sort.Slice(attrs, func(i, j int) bool { return attrs[i] < attrs[j] })
	parts := make([]string, len(attrs))
	for i, a := range attrs {
		parts[i] = sch.Name(a) + "=" + m[a].Quote()
	}
	return "{" + strings.Join(parts, " ") + "}"
}

func formatTuple(vs []relation.Value) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = v.Quote()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func formatAttrs(sch *relation.Schema, as []relation.Attr) string {
	parts := make([]string, len(as))
	for i, a := range as {
		parts[i] = sch.Name(a)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

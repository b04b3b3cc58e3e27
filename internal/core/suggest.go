package core

import (
	"sort"

	"conflictres/internal/constraint"
	"conflictres/internal/encode"
	"conflictres/internal/maxsat"
	"conflictres/internal/relation"
	"conflictres/internal/sat"
)

// Suggestion is the framework's request for user input: if true values for
// Attrs are supplied, the remaining unresolved attributes become derivable.
// Candidates lists the active-domain values not ruled out for each attribute
// (users may still supply values outside of it).
type Suggestion struct {
	Attrs      []relation.Attr
	Candidates map[relation.Attr][]relation.Value

	// Derivable are the unresolved attributes whose true values the chosen
	// rule set will derive once Attrs are validated.
	Derivable []relation.Attr
	// Rules is the conflict-free clique of derivation rules backing the
	// suggestion, for explanation.
	Rules []Rule
}

// Suggest implements Algorithm Suggest (Fig. 7): derive candidate values,
// compute derivation rules, build their compatibility graph, take a maximum
// clique, repair it against Φ(Se) with MaxSAT, and return the attribute set
// that still requires user input together with its candidate values.
func Suggest(enc *encode.Encoding, od *OrderSet, resolved map[relation.Attr]relation.Value) Suggestion {
	return suggestWith(enc, od, resolved, nil)
}

// suggestWith is Suggest with an optional session: when sess is non-nil the
// clique-repair MaxSAT probes run on the session's incremental solver
// (Φ(Se) is already loaded there) instead of a fresh solver per call.
func suggestWith(enc *encode.Encoding, od *OrderSet, resolved map[relation.Attr]relation.Value, sess *Session) Suggestion {
	cand := Candidates(enc, od, resolved)
	rules := TrueDer(enc, od, resolved, cand)
	g := CompGraph(rules)
	cliqueIdx := g.MaxClique()

	// Repair the clique against the specification: hard clauses Φ(Se), one
	// soft group of unit facts per rule node (Example 13's conflict check).
	// Under a non-uniform trust mapping the groups carry weights — rules
	// concluding values observed from higher-trust sources are preferred —
	// and the probe runs the weighted objective; with uniform trust the
	// weight vector is nil and the probe is byte-identical to the unweighted
	// algorithm.
	var kept []Rule
	if len(cliqueIdx) > 0 {
		groups := make([][]sat.Lit, 0, len(cliqueIdx))
		for _, idx := range cliqueIdx {
			groups = append(groups, ruleFacts(enc, rules[idx]))
		}
		var weights []float64
		if trust := enc.Spec.Trust; !trust.Uniform() && enc.Spec.TI.Inst.Sourced() {
			weights = make([]float64, 0, len(cliqueIdx))
			for _, idx := range cliqueIdx {
				weights = append(weights, ruleTrust(enc, rules[idx]))
			}
		}
		var keptIdx []int
		var hardOK bool
		if sess != nil {
			// ruleFacts may have allocated fresh pair variables (with their
			// asymmetry clauses); attach the delta before probing.
			sess.sync()
			keptIdx, hardOK = maxsat.SolveWithWeights(sess.solver, groups, weights)
		} else {
			s := sat.New()
			if enc.CNF().LoadInto(s) {
				keptIdx, hardOK = maxsat.SolveWithWeights(s, groups, weights)
			}
		}
		if hardOK {
			for _, k := range keptIdx {
				kept = append(kept, rules[cliqueIdx[k]])
			}
		}
	}

	// Fixpoint: a rule only fires once all its premises are known — either
	// user-validated (they end up in A), already resolved, or derived by an
	// earlier rule. Rules that never fire forfeit their conclusions, growing
	// A until stable.
	unresolved := make(map[relation.Attr]bool)
	for _, a := range enc.Schema.Attrs() {
		if _, ok := resolved[a]; !ok {
			unresolved[a] = true
		}
	}
	derivable := fireFixpoint(enc, kept, resolved, unresolved)

	var attrs []relation.Attr
	for a := range unresolved {
		if !derivable[a] {
			attrs = append(attrs, a)
		}
	}
	sort.Slice(attrs, func(i, j int) bool { return attrs[i] < attrs[j] })

	sug := Suggestion{
		Attrs:      attrs,
		Candidates: make(map[relation.Attr][]relation.Value, len(attrs)),
		Rules:      kept,
	}
	for _, a := range attrs {
		sug.Candidates[a] = cand[a]
	}
	for a := range derivable {
		sug.Derivable = append(sug.Derivable, a)
	}
	sort.Slice(sug.Derivable, func(i, j int) bool { return sug.Derivable[i] < sug.Derivable[j] })
	return sug
}

// fireFixpoint simulates rule application: premises from resolved attributes
// and from attributes the user will validate (everything unresolved and not
// yet derivable counts as user-suppliable) — then iteratively marks rule
// conclusions as derivable, shrinking the user set.
func fireFixpoint(enc *encode.Encoding, rules []Rule,
	resolved map[relation.Attr]relation.Value, unresolved map[relation.Attr]bool) map[relation.Attr]bool {

	derivable := make(map[relation.Attr]bool)
	// Known = resolved ∪ A ∪ derivable. A = unresolved \ derivable, so
	// "known" is: resolved, or unresolved (user supplies or rule derives).
	// The subtlety is ordering: a rule's conclusion is only derivable if its
	// premises do not depend on that very conclusion through a cycle. Treat
	// premises as known when they are resolved, in A (not derivable by any
	// rule), or already marked derivable.
	concludedBy := make(map[relation.Attr]bool)
	for _, r := range rules {
		concludedBy[r.B] = true
	}
	known := func(a relation.Attr) bool {
		if _, ok := resolved[a]; ok {
			return true
		}
		if derivable[a] {
			return true
		}
		// In A: unresolved and no rule concludes it (user must supply it).
		return unresolved[a] && !concludedBy[a]
	}
	for changed := true; changed; {
		changed = false
		for _, r := range rules {
			if derivable[r.B] {
				continue
			}
			ok := true
			for _, a := range r.X {
				if !known(a) {
					ok = false
					break
				}
			}
			if ok {
				derivable[r.B] = true
				changed = true
			}
		}
	}
	return derivable
}

// ruleTrust scores a derivation rule under the specification's trust
// mapping: the trust of its concluded value — the highest weight among the
// sources that observed that value for that attribute. Values no tuple
// carries (e.g. a CFD constant outside the active domain) score 0.
func ruleTrust(enc *encode.Encoding, r Rule) float64 {
	return ValueTrust(enc.Spec.TI.Inst, enc.Spec.Trust, r.B, r.Bv)
}

// ValueTrust is the trust weight of one (attribute, value) observation: the
// maximum trust among the sources of the tuples carrying that value.
func ValueTrust(in *relation.Instance, trust *constraint.TrustTable,
	a relation.Attr, v relation.Value) float64 {
	best := 0.0
	for _, id := range in.TupleIDs() {
		if relation.Equal(in.Value(id, a), v) {
			if w := trust.Weight(in.Source(id)); w > best {
				best = w
			}
		}
	}
	return best
}

// ruleFacts encodes the value assignments a rule asserts as unit literals:
// for every asserted (A, v), each other active-domain value of A sits below
// v. Variables for unseen pairs are allocated on demand (with asymmetry).
func ruleFacts(enc *encode.Encoding, r Rule) []sat.Lit {
	var out []sat.Lit
	for a, v := range r.assignments() {
		vi, ok := enc.ValueIndex(a, v)
		if !ok {
			continue // value outside the known domain: unconstrained
		}
		for _, i := range enc.ADomIndices(a) {
			if i == vi {
				continue
			}
			out = append(out, enc.EnsureLit(encode.OrderLit{Attr: a, A1: i, A2: vi}))
		}
	}
	return out
}

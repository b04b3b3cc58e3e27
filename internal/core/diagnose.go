package core

import (
	"fmt"
	"strings"

	"conflictres/internal/encode"
	"conflictres/internal/sat"
)

// Conflict explains why a specification is invalid: a (subset-minimal) set
// of instance constraints that is already unsatisfiable together with the
// order axioms. Sources point back to the currency constraints, CFDs or
// explicit order edges involved.
type Conflict struct {
	Instances []encode.Instance
}

// Format renders the conflict with one line per involved instance.
func (c Conflict) Format(enc *encode.Encoding) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d conflicting instance constraints:\n", len(c.Instances))
	for _, inst := range c.Instances {
		b.WriteString("  ")
		if len(inst.Body) > 0 {
			parts := make([]string, len(inst.Body))
			for i, l := range inst.Body {
				parts[i] = enc.FormatLit(l)
			}
			b.WriteString(strings.Join(parts, " & "))
			b.WriteString(" -> ")
		}
		b.WriteString(enc.FormatLit(inst.Head))
		switch inst.Src.Kind {
		case encode.SrcOrder:
			b.WriteString("   [explicit currency order]")
		case encode.SrcCurrency:
			fmt.Fprintf(&b, "   [currency constraint #%d]", inst.Src.Index)
		case encode.SrcCFD:
			fmt.Fprintf(&b, "   [CFD #%d]", inst.Src.Index)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Diagnose computes a subset-minimal conflicting core of Ω(Se) for an
// invalid specification, by deletion-based minimization: order axioms
// (asymmetry clauses, transitivity order groups) are kept hard, and
// instances are dropped one at a time while the remainder stays
// unsatisfiable. It returns ok=false when the specification is actually
// valid.
//
// One incremental solver carries all |Ω|+1 minimization queries: each
// instance clause is guarded by a fresh selector variable s_i (the solver
// stores ¬s_i ∨ clause), and dropping an instance simply omits its selector
// from the assumption set — learned clauses accumulate across every step
// instead of being rebuilt per candidate.
func Diagnose(enc *encode.Encoding) (Conflict, bool) {
	instClause := make(map[int]bool, len(enc.Omega))
	for _, ci := range enc.InstanceClauseIndex() {
		instClause[ci] = true
	}

	cnf := enc.CNF()
	s := sat.New()
	for s.NumVars() < cnf.NVars {
		s.NewVar()
	}
	for ci, cl := range cnf.Clauses {
		if instClause[ci] {
			continue
		}
		s.AddClause(cl...) // axioms alone contradictory leaves s.Okay() false
	}
	cnf.AppendInto(s, len(cnf.Clauses)) // no clause left to append: installs the order groups, hard
	sel := make([]sat.Lit, len(enc.Omega))
	for i, ci := range enc.InstanceClauseIndex() {
		v := s.NewVar()
		sel[i] = sat.PosLit(v)
		// The fresh unassigned guard ¬s_i keeps this addition conflict-free.
		s.AddClause(append([]sat.Lit{sat.NegLit(v)}, cnf.Clauses[ci]...)...)
	}

	keep := make([]bool, len(sel))
	for i := range keep {
		keep[i] = true
	}
	unsat := func() bool {
		if !s.Okay() {
			return true
		}
		assume := make([]sat.Lit, 0, len(sel))
		for i, k := range keep {
			if k {
				assume = append(assume, sel[i])
			}
		}
		return s.Solve(assume...) == sat.StatusUnsat
	}

	if !unsat() {
		return Conflict{}, false
	}
	for i := range keep {
		keep[i] = false
		if !unsat() {
			keep[i] = true // needed for the conflict
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

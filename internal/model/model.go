// Package model defines the conflict-resolution model of Fan et al.
// (ICDE 2013, Section II): temporal instances (entity instances plus partial
// currency orders per attribute) and specifications Se = (It, Σ, Γ) bundling
// a temporal instance with currency constraints and constant CFDs.
//
// The model layer is purely declarative; the encode package compiles a Spec
// into instance constraints / CNF, and the core package implements the
// paper's algorithms on top.
package model

import (
	"fmt"

	"conflictres/internal/constraint"
	"conflictres/internal/relation"
)

// OrderEdge is one explicit piece of temporal information: tuple T1 is no
// more current than tuple T2 in the given attribute (t1 ≼_A t2).
type OrderEdge struct {
	Attr   relation.Attr
	T1, T2 relation.TupleID
}

// TemporalInstance is It = (Ie, ≼_A1, ..., ≼_An): an entity instance plus
// the available (possibly empty) currency orders, stored as explicit edges.
// The "null ranks lowest" rule of the paper is implicit and applied by the
// encoder; it does not need edges here.
type TemporalInstance struct {
	Inst  *relation.Instance
	Edges []OrderEdge
}

// NewTemporal wraps an entity instance with empty currency orders.
func NewTemporal(in *relation.Instance) *TemporalInstance {
	return &TemporalInstance{Inst: in}
}

// AddOrder records t1 ≼_a t2. Both tuples must exist.
func (ti *TemporalInstance) AddOrder(a relation.Attr, t1, t2 relation.TupleID) error {
	n := relation.TupleID(ti.Inst.Len())
	if t1 < 0 || t2 < 0 || t1 >= n || t2 >= n {
		return fmt.Errorf("model: tuple id out of range: %d, %d (n=%d)", t1, t2, n)
	}
	if int(a) < 0 || int(a) >= ti.Inst.Schema().Len() {
		return fmt.Errorf("model: attribute %d out of schema range", a)
	}
	ti.Edges = append(ti.Edges, OrderEdge{Attr: a, T1: t1, T2: t2})
	return nil
}

// MustOrder is AddOrder that panics on error; for tests and literals.
func (ti *TemporalInstance) MustOrder(a relation.Attr, t1, t2 relation.TupleID) {
	if err := ti.AddOrder(a, t1, t2); err != nil {
		panic(err)
	}
}

// Clone deep-copies the temporal instance.
func (ti *TemporalInstance) Clone() *TemporalInstance {
	return &TemporalInstance{
		Inst:  ti.Inst.Clone(),
		Edges: append([]OrderEdge(nil), ti.Edges...),
	}
}

// Spec is a specification Se = (It, Σ, Γ) of one entity, optionally extended
// with a trust mapping T over the instance's tuple sources.
type Spec struct {
	TI    *TemporalInstance
	Sigma []constraint.Currency
	Gamma []constraint.CFD
	// Trust weights tuple sources for tie-breaking; nil means uniform trust
	// and leaves every algorithm byte-identical to the trust-free framework.
	Trust *constraint.TrustTable

	// compiled records the constraint slices NewCompiledSpec was given as
	// already checked; see Validate.
	compiled compiledRules
}

// compiledRules names constraint slices that were validated against a
// schema of the given arity when they were compiled.
type compiledRules struct {
	sigma []constraint.Currency
	gamma []constraint.CFD
	arity int
}

// covers reports whether s still holds exactly the compiled slices over a
// schema of the compiled arity.
func (c compiledRules) covers(s *Spec) bool {
	return c.arity > 0 && c.arity == s.Schema().Len() &&
		sameSlice(c.sigma, s.Sigma) && sameSlice(c.gamma, s.Gamma)
}

// sameSlice reports whether a and b are the same slice: one backing array,
// one length.
func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// NewSpec bundles a temporal instance with constraint sets. The slices are
// not copied; callers hand over ownership.
func NewSpec(ti *TemporalInstance, sigma []constraint.Currency, gamma []constraint.CFD) *Spec {
	return &Spec{TI: ti, Sigma: sigma, Gamma: gamma}
}

// NewCompiledSpec is NewSpec for constraints that were validated against
// a schema of ti's arity when they were compiled — the constraint parser
// validates every constraint it returns, so a compiled rule set's Σ and Γ
// qualify. While the spec holds these very slices, Validate checks only
// what the instance adds; reassigning Sigma or Gamma restores the full
// check.
func NewCompiledSpec(ti *TemporalInstance, sigma []constraint.Currency, gamma []constraint.CFD) *Spec {
	s := NewSpec(ti, sigma, gamma)
	s.compiled = compiledRules{sigma: sigma, gamma: gamma, arity: ti.Inst.Schema().Len()}
	return s
}

// Schema returns the specification's relation schema.
func (s *Spec) Schema() *relation.Schema { return s.TI.Inst.Schema() }

// Validate checks structural well-formedness of all parts: a non-empty
// instance whose tuples match the schema's arity, every constraint of Σ
// and Γ (skipped for constraints compiled for this schema, see
// NewCompiledSpec), and order edges between existing tuples.
func (s *Spec) Validate() error {
	if s.TI == nil || s.TI.Inst == nil {
		return fmt.Errorf("model: spec has no temporal instance")
	}
	if s.TI.Inst.Len() == 0 {
		return fmt.Errorf("model: entity instance is empty")
	}
	sch := s.Schema()
	if !s.compiled.covers(s) {
		for i, c := range s.Sigma {
			if err := c.Validate(sch); err != nil {
				return fmt.Errorf("model: currency constraint %d: %w", i, err)
			}
		}
		for i, c := range s.Gamma {
			if err := c.Validate(sch); err != nil {
				return fmt.Errorf("model: CFD %d: %w", i, err)
			}
		}
	}
	n := relation.TupleID(s.TI.Inst.Len())
	for id := relation.TupleID(0); id < n; id++ {
		if len(s.TI.Inst.Tuple(id)) != sch.Len() {
			return fmt.Errorf("model: tuple %d has %d values, schema has %d", id, len(s.TI.Inst.Tuple(id)), sch.Len())
		}
	}
	for _, e := range s.TI.Edges {
		if e.T1 < 0 || e.T2 < 0 || e.T1 >= n || e.T2 >= n {
			return fmt.Errorf("model: order edge refers to missing tuple: %+v", e)
		}
	}
	return nil
}

// Clone deep-copies the specification (constraints and the trust table are
// immutable values and are shared structurally).
func (s *Spec) Clone() *Spec {
	out := &Spec{
		TI:    s.TI.Clone(),
		Sigma: append([]constraint.Currency(nil), s.Sigma...),
		Gamma: append([]constraint.CFD(nil), s.Gamma...),
		Trust: s.Trust,
	}
	if s.compiled.covers(s) {
		// The copies hold the same checked constraints.
		out.compiled = compiledRules{sigma: out.Sigma, gamma: out.Gamma, arity: s.compiled.arity}
	}
	return out
}

// Extend implements Se ⊕ Ot for user input (paper Section III, Remarks (1)):
// the answers map carries the user-validated true values for some attributes.
// A fresh tuple t_o is appended holding those values (null elsewhere), and
// for every answered attribute A, edges t ≼_A t_o are added for all existing
// tuples t, ranking the validated value above everything known.
//
// The receiver is not modified; the extended specification is returned.
func (s *Spec) Extend(answers map[relation.Attr]relation.Value) *Spec {
	out := s.Clone()
	if len(answers) == 0 {
		return out
	}
	sch := out.Schema()
	to := relation.NewTuple(sch)
	for a, v := range answers {
		to[a] = v
	}
	existing := out.TI.Inst.TupleIDs()
	toID := out.TI.Inst.MustAdd(to)
	for a := range answers {
		for _, t := range existing {
			out.TI.Edges = append(out.TI.Edges, OrderEdge{Attr: a, T1: t, T2: toID})
		}
	}
	return out
}

// ExtendWithEdges implements Se ⊕ Ot for raw order information: the given
// edges are appended to the temporal instance. The receiver is not modified.
func (s *Spec) ExtendWithEdges(edges []OrderEdge) *Spec {
	out := s.Clone()
	out.TI.Edges = append(out.TI.Edges, edges...)
	return out
}

// ExtendRows is the change-data-capture extension: new data tuples (and
// optionally new order edges, which may reference the appended tuples) are
// added to the temporal instance. Unlike Extend, the rows carry no implied
// currency edges — they are ordinary observations joining the instance on
// equal footing with the existing tuples. Rows must match the schema arity
// (Instance.Add copies and validates); edge indices are checked by
// Spec.Validate, which callers on untrusted input should invoke on the
// result. The receiver is not modified.
func (s *Spec) ExtendRows(rows []relation.Tuple, edges []OrderEdge) *Spec {
	out := s.Clone()
	for _, r := range rows {
		out.TI.Inst.MustAdd(r)
	}
	out.TI.Edges = append(out.TI.Edges, edges...)
	return out
}

package model

import (
	"testing"

	"conflictres/internal/constraint"
	"conflictres/internal/relation"
)

func twoTupleSpec(t *testing.T) *Spec {
	t.Helper()
	sch := relation.MustSchema("status", "city")
	in := relation.NewInstance(sch)
	in.MustAdd(relation.Tuple{relation.String("working"), relation.String("NY")})
	in.MustAdd(relation.Tuple{relation.String("retired"), relation.String("LA")})
	sigma := []constraint.Currency{
		constraint.MustCurrency(sch, `t1[status] = "working" & t2[status] = "retired" -> t1 <[status] t2`),
	}
	gamma := []constraint.CFD{
		constraint.MustCFD(sch, `status = "retired" => city = "LA"`),
	}
	return NewSpec(NewTemporal(in), sigma, gamma)
}

func TestValidateOK(t *testing.T) {
	if err := twoTupleSpec(t).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsEmptyInstance(t *testing.T) {
	sch := relation.MustSchema("a")
	spec := NewSpec(NewTemporal(relation.NewInstance(sch)), nil, nil)
	if err := spec.Validate(); err == nil {
		t.Fatal("empty instance must fail validation")
	}
}

func TestValidateRejectsNilTI(t *testing.T) {
	spec := &Spec{}
	if err := spec.Validate(); err == nil {
		t.Fatal("nil temporal instance must fail validation")
	}
}

func TestAddOrderBounds(t *testing.T) {
	spec := twoTupleSpec(t)
	if err := spec.TI.AddOrder(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := spec.TI.AddOrder(0, 0, 5); err == nil {
		t.Fatal("out-of-range tuple must fail")
	}
	if err := spec.TI.AddOrder(99, 0, 1); err == nil {
		t.Fatal("out-of-range attribute must fail")
	}
	if len(spec.TI.Edges) != 1 {
		t.Fatalf("edges = %v", spec.TI.Edges)
	}
}

func TestCloneIsDeep(t *testing.T) {
	spec := twoTupleSpec(t)
	spec.TI.MustOrder(0, 0, 1)
	cp := spec.Clone()
	cp.TI.MustOrder(1, 0, 1)
	cp.TI.Inst.MustAdd(relation.Tuple{relation.String("x"), relation.String("y")})
	if len(spec.TI.Edges) != 1 {
		t.Fatal("clone edges must not leak back")
	}
	if spec.TI.Inst.Len() != 2 {
		t.Fatal("clone tuples must not leak back")
	}
}

func TestExtendAddsTopRankedTuple(t *testing.T) {
	spec := twoTupleSpec(t)
	sch := spec.Schema()
	status := sch.MustAttr("status")
	ext := spec.Extend(map[relation.Attr]relation.Value{
		status: relation.String("deceased"),
	})
	if spec.TI.Inst.Len() != 2 {
		t.Fatal("Extend must not mutate the receiver")
	}
	if ext.TI.Inst.Len() != 3 {
		t.Fatalf("extended instance has %d tuples", ext.TI.Inst.Len())
	}
	to := ext.TI.Inst.Tuple(2)
	if to[status].String() != "deceased" {
		t.Fatalf("answered attribute = %v", to[status])
	}
	if !to[sch.MustAttr("city")].IsNull() {
		t.Fatal("unanswered attributes must be null in the user tuple")
	}
	// One edge per existing tuple, on the answered attribute only.
	if len(ext.TI.Edges) != 2 {
		t.Fatalf("edges = %v", ext.TI.Edges)
	}
	for _, e := range ext.TI.Edges {
		if e.Attr != status || e.T2 != 2 {
			t.Fatalf("unexpected edge %+v", e)
		}
	}
}

func TestExtendEmptyAnswers(t *testing.T) {
	spec := twoTupleSpec(t)
	ext := spec.Extend(nil)
	if ext.TI.Inst.Len() != 2 || len(ext.TI.Edges) != 0 {
		t.Fatal("empty answers must only clone")
	}
}

func TestExtendWithEdges(t *testing.T) {
	spec := twoTupleSpec(t)
	ext := spec.ExtendWithEdges([]OrderEdge{{Attr: 0, T1: 0, T2: 1}})
	if len(spec.TI.Edges) != 0 {
		t.Fatal("receiver must stay unchanged")
	}
	if len(ext.TI.Edges) != 1 {
		t.Fatal("edge not added")
	}
}

func TestValidateRejectsBadConstraint(t *testing.T) {
	spec := twoTupleSpec(t)
	spec.Sigma = append(spec.Sigma, constraint.Currency{Target: 99})
	if err := spec.Validate(); err == nil {
		t.Fatal("out-of-schema constraint must fail validation")
	}
}

func TestValidateRejectsBadEdge(t *testing.T) {
	spec := twoTupleSpec(t)
	spec.TI.Edges = append(spec.TI.Edges, OrderEdge{Attr: 0, T1: 0, T2: 9})
	if err := spec.Validate(); err == nil {
		t.Fatal("dangling edge must fail validation")
	}
}

// TestCompiledSpecChecksOnlyTheInstance: a spec over compiled constraints
// skips their re-check but still checks the instance and its edges; once
// Sigma or Gamma is reassigned (or the instance's arity differs), every
// constraint is checked again.
func TestCompiledSpecChecksOnlyTheInstance(t *testing.T) {
	base := twoTupleSpec(t)
	// A constraint no parser would return stands in for "already checked":
	// skipping it is what the compiled mark promises.
	sigma := append(base.Sigma, constraint.Currency{Target: 99})
	spec := NewCompiledSpec(base.TI, sigma, base.Gamma)
	if err := spec.Validate(); err != nil {
		t.Fatalf("compiled constraints re-checked: %v", err)
	}
	if err := spec.Clone().Validate(); err != nil {
		t.Fatalf("clone lost the compiled mark: %v", err)
	}

	spec.TI.Edges = append(spec.TI.Edges, OrderEdge{Attr: 0, T1: 0, T2: 9})
	if err := spec.Validate(); err == nil {
		t.Fatal("dangling edge must fail validation of a compiled spec")
	}
	spec.TI.Edges = nil

	spec.Sigma = append([]constraint.Currency(nil), sigma...)
	if err := spec.Validate(); err == nil {
		t.Fatal("reassigned Sigma must be checked in full")
	}
	spec.Sigma = sigma
	spec.Gamma = append([]constraint.CFD(nil), base.Gamma...)
	if err := spec.Validate(); err == nil {
		t.Fatal("reassigned Gamma must restore the full check")
	}

	empty := NewCompiledSpec(NewTemporal(relation.NewInstance(base.Schema())), base.Sigma, base.Gamma)
	if err := empty.Validate(); err == nil || err.Error() != "model: entity instance is empty" {
		t.Fatalf("empty compiled instance: %v", err)
	}
}

// Package constraint defines the two constraint classes of Fan et al.
// (ICDE 2013): currency constraints ∀t1,t2 (ω → t1 ≺_Ar t2), whose bodies
// conjoin currency-order predicates and comparison predicates, and constant
// conditional functional dependencies (CFDs) tp[X] → tp[B] interpreted on the
// current tuple of a completion.
//
// A small text syntax is provided so specifications can live in files:
//
//	t1[status] = "working" & t2[status] = "retired" -> t1 <[status] t2
//	t1 <[status] t2 -> t1 <[job] t2
//	t1[kids] < t2[kids] -> t1 <[kids] t2
//	AC = "213" => city = "LA"
//	city = "NY" & zip = "12404" => county = "Accord"
//
// "->" introduces a currency constraint's head; "=>" a constant CFD's head.
package constraint

import (
	"fmt"
	"slices"
	"strings"

	"conflictres/internal/relation"
)

// Op is a comparison operator in a constraint body.
type Op uint8

// Comparison operators, paper Section II-A: =, ≠, <, ≤, >, ≥.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Eval applies the operator to the three-way comparison of a and b.
// Null compares below every non-null value (relation.Compare semantics).
func (o Op) Eval(a, b relation.Value) bool {
	c := relation.Compare(a, b)
	switch o {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	default:
		panic("constraint: unknown operator")
	}
}

// TupleRef names one of the two universally quantified tuples.
type TupleRef uint8

// The two tuple variables of a currency constraint.
const (
	T1 TupleRef = 1
	T2 TupleRef = 2
)

func (r TupleRef) String() string {
	if r == T1 {
		return "t1"
	}
	return "t2"
}

// Operand is either a tuple attribute reference ti[A] or a constant.
type Operand struct {
	Const   bool
	Tuple   TupleRef      // valid when !Const
	Attr    relation.Attr // valid when !Const
	Literal relation.Value
}

// AttrOperand builds a ti[A] operand.
func AttrOperand(t TupleRef, a relation.Attr) Operand { return Operand{Tuple: t, Attr: a} }

// ConstOperand builds a constant operand.
func ConstOperand(v relation.Value) Operand { return Operand{Const: true, Literal: v} }

// Resolve returns the operand's value against the pair (s1, s2).
func (o Operand) Resolve(s1, s2 relation.Tuple) relation.Value {
	if o.Const {
		return o.Literal
	}
	if o.Tuple == T1 {
		return s1[o.Attr]
	}
	return s2[o.Attr]
}

func (o Operand) format(sch *relation.Schema) string {
	if o.Const {
		return o.Literal.Quote()
	}
	return fmt.Sprintf("%s[%s]", o.Tuple, sch.Name(o.Attr))
}

// PredKind discriminates body predicates.
type PredKind uint8

const (
	// PredCurrency is t1 ≺_A t2: t2's A-value is strictly more current.
	PredCurrency PredKind = iota
	// PredCompare is a comparison L op R over tuple attributes / constants.
	PredCompare
)

// Pred is one conjunct of a currency-constraint body.
type Pred struct {
	Kind PredKind

	// PredCurrency fields.
	Attr relation.Attr

	// PredCompare fields.
	Op   Op
	L, R Operand
}

// CurrencyPred builds the body predicate t1 ≺_a t2.
func CurrencyPred(a relation.Attr) Pred { return Pred{Kind: PredCurrency, Attr: a} }

// ComparePred builds the body predicate l op r.
func ComparePred(l Operand, op Op, r Operand) Pred {
	return Pred{Kind: PredCompare, Op: op, L: l, R: r}
}

func (p Pred) format(sch *relation.Schema) string {
	if p.Kind == PredCurrency {
		return fmt.Sprintf("t1 <[%s] t2", sch.Name(p.Attr))
	}
	return fmt.Sprintf("%s %s %s", p.L.format(sch), p.Op, p.R.format(sch))
}

// Currency is a currency constraint ∀t1,t2 (Body → t1 ≺_Target t2).
type Currency struct {
	Body   []Pred
	Target relation.Attr
}

// Format renders the constraint in the parser's syntax.
func (c Currency) Format(sch *relation.Schema) string {
	if len(c.Body) == 0 {
		return fmt.Sprintf("true -> t1 <[%s] t2", sch.Name(c.Target))
	}
	parts := make([]string, len(c.Body))
	for i, p := range c.Body {
		parts[i] = p.format(sch)
	}
	return fmt.Sprintf("%s -> t1 <[%s] t2", strings.Join(parts, " & "), sch.Name(c.Target))
}

// ComparisonOnly reports whether the body contains no currency predicates.
// The paper's favoured Pick baseline uses exactly these constraints.
func (c Currency) ComparisonOnly() bool {
	for _, p := range c.Body {
		if p.Kind == PredCurrency {
			return false
		}
	}
	return true
}

// CFD is a constant conditional functional dependency tp[X] → tp[B]:
// if the current tuple's X-values equal the pattern, its B-value must be VB.
type CFD struct {
	X  []relation.Attr
	PX []relation.Value // pattern constants, parallel to X
	B  relation.Attr
	VB relation.Value
}

// Format renders the CFD in the parser's syntax.
func (c CFD) Format(sch *relation.Schema) string {
	parts := make([]string, len(c.X))
	for i, a := range c.X {
		parts[i] = fmt.Sprintf("%s = %s", sch.Name(a), c.PX[i].Quote())
	}
	return fmt.Sprintf("%s => %s = %s", strings.Join(parts, " & "), sch.Name(c.B), c.VB.Quote())
}

// Validate checks structural well-formedness against a schema.
func (c CFD) Validate(sch *relation.Schema) error {
	if len(c.X) == 0 {
		return fmt.Errorf("constraint: CFD has empty LHS")
	}
	if len(c.X) != len(c.PX) {
		return fmt.Errorf("constraint: CFD has %d attributes but %d pattern values", len(c.X), len(c.PX))
	}
	for _, v := range c.PX {
		if v.IsNull() {
			return fmt.Errorf("constraint: CFD pattern constants must not be null")
		}
	}
	if c.VB.IsNull() {
		return fmt.Errorf("constraint: CFD consequent constant must not be null")
	}
	for i, a := range c.X {
		if int(a) < 0 || int(a) >= sch.Len() {
			return fmt.Errorf("constraint: CFD attribute %d out of schema range", a)
		}
		if slices.Contains(c.X[:i], a) {
			return fmt.Errorf("constraint: CFD repeats attribute %s", sch.Name(a))
		}
		if a == c.B {
			return fmt.Errorf("constraint: CFD RHS attribute %s also appears on the LHS", sch.Name(a))
		}
	}
	if int(c.B) < 0 || int(c.B) >= sch.Len() {
		return fmt.Errorf("constraint: CFD RHS attribute %d out of schema range", c.B)
	}
	return nil
}

// Validate checks structural well-formedness against a schema.
func (c Currency) Validate(sch *relation.Schema) error {
	if int(c.Target) < 0 || int(c.Target) >= sch.Len() {
		return fmt.Errorf("constraint: target attribute %d out of schema range", c.Target)
	}
	check := func(o Operand) error {
		if !o.Const && (int(o.Attr) < 0 || int(o.Attr) >= sch.Len()) {
			return fmt.Errorf("constraint: operand attribute %d out of schema range", o.Attr)
		}
		if !o.Const && o.Tuple != T1 && o.Tuple != T2 {
			return fmt.Errorf("constraint: operand tuple reference %d invalid", o.Tuple)
		}
		return nil
	}
	for _, p := range c.Body {
		switch p.Kind {
		case PredCurrency:
			if int(p.Attr) < 0 || int(p.Attr) >= sch.Len() {
				return fmt.Errorf("constraint: currency predicate attribute %d out of schema range", p.Attr)
			}
		case PredCompare:
			if err := check(p.L); err != nil {
				return err
			}
			if err := check(p.R); err != nil {
				return err
			}
		default:
			return fmt.Errorf("constraint: unknown predicate kind %d", p.Kind)
		}
	}
	return nil
}

// EvalCompare evaluates a comparison predicate against the pair (s1, s2).
// It panics if called on a currency predicate: those are not statically
// evaluable and must be handled by the encoder.
func (p Pred) EvalCompare(s1, s2 relation.Tuple) bool {
	if p.Kind != PredCompare {
		panic("constraint: EvalCompare on a currency predicate")
	}
	return p.Op.Eval(p.L.Resolve(s1, s2), p.R.Resolve(s1, s2))
}

package conflictres

import (
	"fmt"
	"io"

	"conflictres/internal/constraint"
	"conflictres/internal/core"
	"conflictres/internal/encode"
	"conflictres/internal/model"
	"conflictres/internal/reference"
	"conflictres/internal/relation"
	"conflictres/internal/textio"
)

// Re-exported data-model types. The facade keeps downstream users off the
// internal packages while staying zero-cost (type aliases).
type (
	// Schema is an ordered list of attribute names.
	Schema = relation.Schema
	// Attr identifies an attribute by schema position.
	Attr = relation.Attr
	// Value is a typed attribute value (string, int, float or null).
	Value = relation.Value
	// Tuple is a row over a schema.
	Tuple = relation.Tuple
	// Instance is an entity instance: tuples describing one entity.
	Instance = relation.Instance
	// TupleID identifies a tuple inside an instance.
	TupleID = relation.TupleID
	// Suggestion asks the user for the true values of some attributes.
	Suggestion = core.Suggestion
	// Oracle supplies user input during interactive resolution.
	Oracle = core.Oracle
	// OracleFunc adapts a function to the Oracle interface.
	OracleFunc = core.OracleFunc
	// SimulatedUser answers suggestions from a known ground-truth tuple.
	SimulatedUser = core.SimulatedUser
	// Timing breaks resolution time down by framework phase.
	Timing = core.Timing
	// SessionStats reports a resolution session's solver-reuse counters.
	SessionStats = core.SessionStats
)

// Value constructors and helpers.
var (
	// String builds a string value.
	String = relation.String
	// Int builds an integer value.
	Int = relation.Int
	// Float builds a float value.
	Float = relation.Float
	// Null is the missing value; it ranks lowest in every currency order.
	Null = relation.Null
	// NewSchema builds a schema from attribute names.
	NewSchema = relation.NewSchema
	// MustSchema is NewSchema that panics on error.
	MustSchema = relation.MustSchema
	// NewInstance creates an empty entity instance.
	NewInstance = relation.NewInstance
)

// Spec is a conflict-resolution specification Se = (It, Σ, Γ): an entity
// instance with optional explicit currency orders, currency constraints and
// constant CFDs.
type Spec struct {
	m *model.Spec
}

// NewSpec builds a specification from an entity instance and constraint
// texts. Currency constraints use the syntax
//
//	t1[status] = "working" & t2[status] = "retired" -> t1 <[status] t2
//	t1 <[status] t2 -> t1 <[AC] t2
//
// and constant CFDs
//
//	AC = "212" => city = "NY"
func NewSpec(in *Instance, currency []string, cfds []string) (*Spec, error) {
	sch := in.Schema()
	var sigma []constraint.Currency
	for _, s := range currency {
		c, err := constraint.ParseCurrency(sch, s)
		if err != nil {
			return nil, err
		}
		sigma = append(sigma, c)
	}
	var gamma []constraint.CFD
	for _, s := range cfds {
		c, err := constraint.ParseCFD(sch, s)
		if err != nil {
			return nil, err
		}
		gamma = append(gamma, c)
	}
	m := model.NewSpec(model.NewTemporal(in), sigma, gamma)
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Spec{m: m}, nil
}

// AddOrder records the explicit currency edge t1 ≼_attr t2 ("t2 is at least
// as current as t1 in attr").
func (s *Spec) AddOrder(attr string, t1, t2 TupleID) error {
	a, ok := s.m.Schema().Attr(attr)
	if !ok {
		return fmt.Errorf("conflictres: unknown attribute %q", attr)
	}
	return s.m.TI.AddOrder(a, t1, t2)
}

// Schema returns the specification's schema.
func (s *Spec) Schema() *Schema { return s.m.Schema() }

// Instance returns the underlying entity instance.
func (s *Spec) Instance() *Instance { return s.m.TI.Inst }

// LoadSpec reads a specification from the textio file format.
func LoadSpec(r io.Reader) (*Spec, error) {
	m, err := textio.ReadSpec(r)
	if err != nil {
		return nil, err
	}
	return &Spec{m: m}, nil
}

// LoadSpecFile reads a specification from a file.
func LoadSpecFile(path string) (*Spec, error) {
	m, err := textio.LoadSpecFile(path)
	if err != nil {
		return nil, err
	}
	return &Spec{m: m}, nil
}

// Save writes the specification in the textio file format.
func (s *Spec) Save(w io.Writer) error { return textio.WriteSpec(w, s.m) }

// Options tunes Resolve.
type Options struct {
	// Mode selects the resolution strategy and trust overlay; the zero value
	// is the SAT framework with the specification's own trust mapping.
	Mode ResolutionMode
	// MaxRounds bounds interaction rounds (default 8).
	MaxRounds int
	// UseNaiveDeduce switches to the exact per-variable deduction baseline.
	UseNaiveDeduce bool
	// fromScratch disables the incremental session engine and re-encodes
	// the specification every round; unpooled disables cross-entity
	// pipeline reuse (encoding skeleton + solver pooling) in the batch and
	// dataset paths. Both are differential references and ablation
	// baselines with identical results, not API: the package's own tests
	// set them, and internal/reference hands fromScratch to internal ones.
	fromScratch bool
	unpooled    bool
}

func init() {
	reference.FromScratch = func(m *model.Spec) (reference.Outcome, error) {
		res, err := Resolve(&Spec{m: m}, nil, Options{fromScratch: true})
		if err != nil {
			return reference.Outcome{}, err
		}
		return reference.Outcome{Valid: res.Valid, Resolved: res.Resolved, Tuple: res.Tuple}, nil
	}
}

// Result is the outcome of resolving one entity.
type Result struct {
	// Valid is false when the specification has no valid completion; all
	// other fields are then empty.
	Valid bool
	// Tuple is the resolved current tuple (null where undetermined).
	Tuple Tuple
	// Resolved maps each determined attribute to its true value.
	Resolved map[Attr]Value
	// Rounds and Interactions count framework iterations and rounds with
	// user input.
	Rounds       int
	Interactions int
	// Suggestions are the per-round requests issued to the oracle.
	Suggestions []Suggestion
	// Timing aggregates per-phase elapsed time.
	Timing Timing
	// Session reports the resolution engine's solver-reuse counters (zero
	// when the from-scratch reference engine bypassed the session engine).
	Session SessionStats

	schema *Schema
}

// Complete reports whether every attribute was determined.
func (r *Result) Complete() bool {
	return r.Valid && len(r.Resolved) == r.schema.Len()
}

// Value returns the resolved value of the named attribute as a string, or
// "" when the attribute is unresolved or unknown.
func (r *Result) Value(attr string) string {
	a, ok := r.schema.Attr(attr)
	if !ok {
		return ""
	}
	v, ok := r.Resolved[a]
	if !ok {
		return ""
	}
	return v.String()
}

// Resolve runs the conflict-resolution framework: validity checking, joint
// currency/consistency deduction, and — when an oracle is supplied —
// suggestion generation and user interaction until the true tuple is found
// or input is exhausted. A nil oracle performs a single automatic pass.
func Resolve(spec *Spec, oracle Oracle, opts ...Options) (*Result, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	return resolveWith(spec, oracle, o, nil)
}

// resolveWith runs the core framework, optionally on a pooled pipeline. The
// resolution mode is applied here, so every path — single, batch, dataset,
// pooled or not — shares one semantics: the trust overlay is merged into the
// specification, and a non-SAT strategy takes its closed-form fast path when
// the entity is constraint-free (falling back to the framework otherwise).
func resolveWith(spec *Spec, oracle Oracle, o Options, pipe *core.Pipeline) (*Result, error) {
	m, err := o.Mode.effectiveSpec(spec.m)
	if err != nil {
		return nil, err
	}
	if res, ok := fastResolve(m, o.Mode.Strategy); ok {
		return res, nil
	}
	out, err := core.Resolve(m, oracle, core.Options{
		MaxRounds:      o.MaxRounds,
		UseNaiveDeduce: o.UseNaiveDeduce,
		FromScratch:    o.fromScratch,
		Pipeline:       pipe,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Valid:        out.Valid,
		Tuple:        out.Tuple,
		Resolved:     out.Resolved,
		Rounds:       out.Rounds,
		Interactions: out.Interactions,
		Suggestions:  out.Suggestions,
		Timing:       out.Timing,
		Session:      out.Session,
		schema:       spec.Schema(),
	}, nil
}

// Validate reports whether the specification is valid, i.e. whether some
// completion of its currency orders satisfies all constraints.
func Validate(spec *Spec) bool {
	sess := core.NewSession(spec.m, encode.Options{})
	ok, _ := sess.IsValid()
	return ok
}

// Deduce runs one non-interactive deduction pass and returns the true
// values determined so far, keyed by attribute name. Validity checking and
// deduction share one incremental solver.
func Deduce(spec *Spec) (map[string]Value, error) {
	sess := core.NewSession(spec.m, encode.Options{})
	if ok, _ := sess.IsValid(); !ok {
		return nil, fmt.Errorf("conflictres: specification is invalid")
	}
	od, ok := sess.DeduceOrder()
	if !ok {
		return nil, fmt.Errorf("conflictres: specification is invalid")
	}
	sch := spec.Schema()
	out := make(map[string]Value)
	for a, v := range core.TrueValues(sess.Encoding(), od) {
		out[sch.Name(a)] = v
	}
	return out, nil
}

// SuggestOnce computes the attribute set a user should confirm next, with
// candidate values, without applying any input. All phases share one
// incremental solver.
func SuggestOnce(spec *Spec) (Suggestion, error) {
	sess := core.NewSession(spec.m, encode.Options{})
	if ok, _ := sess.IsValid(); !ok {
		return Suggestion{}, fmt.Errorf("conflictres: specification is invalid")
	}
	od, ok := sess.DeduceOrder()
	if !ok {
		return Suggestion{}, fmt.Errorf("conflictres: specification is invalid")
	}
	resolved := core.TrueValues(sess.Encoding(), od)
	return sess.Suggest(od, resolved), nil
}

// Explain diagnoses an invalid specification: it returns a human-readable
// description of a subset-minimal set of conflicting constraints, or ok =
// false when the specification is actually valid.
func Explain(spec *Spec) (string, bool) {
	enc := encode.Build(spec.m, encode.Options{})
	conf, ok := core.Diagnose(enc)
	if !ok {
		return "", false
	}
	return conf.Format(enc), true
}

// Model exposes the internal specification for advanced integrations inside
// this module (the cmd tools); external users should not need it.
func (s *Spec) Model() *model.Spec { return s.m }

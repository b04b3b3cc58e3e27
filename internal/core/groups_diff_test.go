package core

import (
	"fmt"
	"reflect"
	"testing"

	"conflictres/internal/datagen"
	"conflictres/internal/encode"
	"conflictres/internal/fixtures"
	"conflictres/internal/model"
	"conflictres/internal/relation"
	"conflictres/internal/sat"
)

// phaseOutputs is everything the framework's phases report on one
// specification state.
type phaseOutputs struct {
	Valid      bool
	DeducedOK  bool
	Order      []encode.OrderLit
	TrueValues map[relation.Attr]relation.Value
	Suggestion Suggestion
	Conflict   Conflict
	Invalid    bool // Diagnose found a conflict
}

// sessionOutputs runs every phase on the session: its incremental solver
// holds the order groups.
func sessionOutputs(s *Session) phaseOutputs {
	var o phaseOutputs
	o.Valid, _ = s.IsValid()
	od, ok := s.DeduceOrder()
	o.DeducedOK, o.Order = ok, od.Lits()
	o.TrueValues = TrueValues(s.Encoding(), od)
	if o.Valid {
		o.Suggestion = s.Suggest(od, o.TrueValues)
	}
	o.Conflict, o.Invalid = s.Diagnose()
	return o
}

// expandedOutputs runs every phase from scratch with enc's formula replaced
// by its expansion: the same clauses, then each order group's transitivity
// triples as plain clauses — the formula as it was before groups. The
// formula is restored afterwards; the phases must not have grown it (any
// atom they allocate was already allocated by the run under comparison).
func expandedOutputs(t *testing.T, enc *encode.Encoding) phaseOutputs {
	t.Helper()
	cnf := enc.CNF()
	saved := cnf.Clone()
	*cnf = *saved.Expand()
	n, nv := len(cnf.Clauses), cnf.NVars
	var o phaseOutputs
	od := NewOrderSet()
	if s := sat.New(); cnf.LoadInto(s) {
		od, o.DeducedOK = DeduceOrderWith(enc, s) // the fixpoint, read before any search
		o.Valid, _ = IsValidWith(s)
	}
	o.Order = od.Lits()
	o.TrueValues = TrueValues(enc, od)
	if o.Valid {
		o.Suggestion = Suggest(enc, od, o.TrueValues)
	}
	o.Conflict, o.Invalid = Diagnose(enc)
	grew := len(cnf.Clauses) != n || cnf.NVars != nv
	*cnf = *saved
	if grew {
		t.Fatal("the expanded run allocated atoms the group run did not")
	}
	return o
}

// splitRows cuts spec after its first k tuples: the prefix spec carries the
// edges among those tuples, and the remaining rows and edges are what an
// ExtendRows call appends.
func splitRows(spec *model.Spec, k int) (*model.Spec, []relation.Tuple, []model.OrderEdge) {
	in := spec.TI.Inst
	prefix := relation.NewInstance(in.Schema())
	var rows []relation.Tuple
	for i := 0; i < in.Len(); i++ {
		if t := in.Tuple(relation.TupleID(i)); i < k {
			prefix.MustAdd(t)
		} else {
			rows = append(rows, t)
		}
	}
	ti := model.NewTemporal(prefix)
	var rest []model.OrderEdge
	for _, ed := range spec.TI.Edges {
		if int(ed.T1) < k && int(ed.T2) < k {
			ti.Edges = append(ti.Edges, ed)
		} else {
			rest = append(rest, ed)
		}
	}
	return model.NewSpec(ti, spec.Sigma, spec.Gamma), rows, rest
}

// groupDiff drives entities through a session and compares every state
// with the expanded-triple oracle.
type groupDiff struct {
	t                *testing.T
	states, invalids int
}

func (d *groupDiff) check(name string, s *Session) {
	d.t.Helper()
	got := sessionOutputs(s)
	want := expandedOutputs(d.t, s.Encoding())
	if !reflect.DeepEqual(got, want) {
		d.t.Fatalf("%s: order groups and expanded triples disagree\ngroups:   %+v\nexpanded: %+v", name, got, want)
	}
	d.states++
	if got.Invalid {
		d.invalids++
	}
}

// entity runs one entity's schedule: a build over the first half of its
// tuples, the rest appended in two ExtendRows rounds, then ExtendAnswers
// rounds — the truth for up to two conflicting attributes, then a value
// other than the truth for one more, which may contradict the data.
func (d *groupDiff) entity(name string, spec *model.Spec, truth relation.Tuple, open func(*model.Spec) *Session) {
	d.t.Helper()
	n := spec.TI.Inst.Len()
	prefix, rows, edges := splitRows(spec, (n+1)/2)
	s := open(prefix)
	d.check(name+"/build", s)
	if len(rows) > 0 {
		mid := len(rows) / 2
		s.ExtendRows(rows[:mid], nil)
		d.check(name+"/rows-1", s)
		s.ExtendRows(rows[mid:], edges)
		d.check(name+"/rows-2", s)
	}
	conflicting := s.Spec().TI.Inst.ConflictingAttrs()
	for i, a := range conflicting {
		if i == 2 || truth == nil {
			break
		}
		s.Extend(map[relation.Attr]relation.Value{a: truth[a]})
		d.check(fmt.Sprintf("%s/answer-%d", name, i), s)
	}
	if len(conflicting) > 2 || (truth == nil && len(conflicting) > 0) {
		a := conflicting[len(conflicting)-1]
		enc := s.Encoding()
		for _, i := range enc.ADomIndices(a) {
			if v := enc.Dom(a)[i]; !v.IsNull() && (truth == nil || !relation.Equal(v, truth[a])) {
				s.Extend(map[relation.Attr]relation.Value{a: v})
				d.check(name+"/answer-other", s)
				break
			}
		}
	}
}

// TestOrderGroupsMatchExpandedTriples is the differential suite for the
// order groups: every phase output — validity, the Fig. 5 fixpoint
// (DeduceOrder), TrueValues, Suggest and Diagnose cores — must be
// byte-identical to a from-scratch run on the formula with each group
// expanded into its transitivity triples. Specs: the paper's fixtures, the
// golden datasets, the fleet's bulk mix, interactive-size Person entities
// and the sparse path (TransitivityCap 3); schedules: ExtendRows and
// ExtendAnswers rounds on standalone and pooled sessions.
func TestOrderGroupsMatchExpandedTriples(t *testing.T) {
	// The oracle reloads the expanded formula for every phase, so each
	// dataset is sampled: every n-th entity, three times sparser under
	// -short.
	thin := 1
	if testing.Short() {
		thin = 3
	}
	d := &groupDiff{t: t}
	standalone := func(opts encode.Options) func(*model.Spec) *Session {
		return func(spec *model.Spec) *Session { return NewSession(spec, opts) }
	}
	pooled := func(ds *datagen.Dataset) func(*model.Spec) *Session {
		p := NewPipeline(ds.Sigma, ds.Gamma, encode.Options{})
		return p.NewSession
	}
	dataset := func(name string, ds *datagen.Dataset, every int, open func(*model.Spec) *Session) {
		for i := 0; i < len(ds.Entities); i += every * thin {
			ent := ds.Entities[i]
			d.entity(fmt.Sprintf("%s/%d", name, i), ent.Spec, ent.Truth, open)
		}
	}
	person := func(entities, minT, maxT int, seed int64, skew string) *datagen.Dataset {
		return datagen.Person(datagen.PersonConfig{
			Entities: entities, MinTuples: minT, MaxTuples: maxT, Seed: seed,
			Skew: skew, ACPool: 24, StatusChains: 6, StatusChainLen: 8,
			JobChains: 6, JobChainLen: 8,
		})
	}

	for i, spec := range []*model.Spec{fixtures.EdithSpec(), fixtures.GeorgeSpec()} {
		d.entity(fmt.Sprintf("paper/%d", i), spec, nil, standalone(encode.Options{}))
	}
	golden := person(60, 2, 40, 7, "")
	dataset("person", golden, 8, standalone(encode.Options{}))
	dataset("person/sparse-cap3", golden, 2, standalone(encode.Options{TransitivityCap: 3}))
	dataset("nba", datagen.NBA(datagen.NBAConfig{Players: 12, Seed: 7}), 4, standalone(encode.Options{}))
	career := datagen.Career(datagen.CareerConfig{Persons: 8, MaxPapers: 35, Seed: 7})
	dataset("career", career, 3, pooled(career))
	bulk := person(128, 2, 40, 7, datagen.SkewZipf)
	dataset("bulk", bulk, 12, pooled(bulk))
	for size := 3; size <= 8; size++ {
		ds := person(16, size, size, int64(size), "")
		dataset(fmt.Sprintf("interactive/%d", size), ds, 6, pooled(ds))
	}
	if d.invalids == 0 {
		t.Errorf("none of %d states was invalid: Diagnose cores went unchecked", d.states)
	}
	t.Logf("%d states compared, %d invalid", d.states, d.invalids)
}

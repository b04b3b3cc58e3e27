package conflictres

import (
	"fmt"
	"strings"

	"conflictres/internal/constraint"
	"conflictres/internal/model"
	"conflictres/internal/relation"
)

// Strategy selects the resolution algorithm for an entity. The zero value is
// StrategySAT — the full currency/consistency framework of the paper — so
// existing callers and wire clients that never mention a strategy keep their
// historical behaviour bit for bit.
//
// The non-SAT strategies are degenerate fast paths: closed-form picks that
// skip encoding and solving entirely. They only apply to entities with no
// constraints in play (empty Σ and Γ and no explicit currency edges); an
// entity with constraints falls back to the SAT framework regardless of the
// requested strategy, because only the solver can honour the constraints.
type Strategy int

const (
	// StrategySAT runs the full deduction framework (default).
	StrategySAT Strategy = iota
	// StrategyLatestWriterWins takes, per attribute, the last non-null value
	// in tuple order (tuple IDs are assignment order, so the latest writer).
	StrategyLatestWriterWins
	// StrategyHighestTrust takes, per attribute, the non-null value observed
	// by the most trusted source; ties go to the latest writer.
	StrategyHighestTrust
	// StrategyConsensus takes, per attribute, the most frequent non-null
	// value; ties go to the higher-trust, then the latest-writer value.
	StrategyConsensus
)

// Strategy names accepted on the wire, in flags and in ParseStrategy.
const (
	strategySATName   = "sat"
	strategyLWWName   = "latest-writer-wins"
	strategyTrustName = "highest-trust"
	strategyConsName  = "consensus"
)

func (s Strategy) String() string {
	switch s {
	case StrategySAT:
		return strategySATName
	case StrategyLatestWriterWins:
		return strategyLWWName
	case StrategyHighestTrust:
		return strategyTrustName
	case StrategyConsensus:
		return strategyConsName
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// StrategyNames lists the accepted strategy names, default first.
func StrategyNames() []string {
	return []string{strategySATName, strategyLWWName, strategyTrustName, strategyConsName}
}

// ParseStrategy maps a wire/flag name to a Strategy. The empty string is the
// default SAT strategy, so absent fields mean "unchanged behaviour".
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", strategySATName:
		return StrategySAT, nil
	case strategyLWWName:
		return StrategyLatestWriterWins, nil
	case strategyTrustName:
		return StrategyHighestTrust, nil
	case strategyConsName:
		return StrategyConsensus, nil
	default:
		return StrategySAT, fmt.Errorf("conflictres: unknown resolution mode %q (want %s)",
			name, strings.Join(StrategyNames(), ", "))
	}
}

// ResolutionMode consolidates the resolution knobs every resolve path shares:
// the strategy and an optional trust-mapping overlay. It is embedded in
// Options (and through it BatchOptions), in DatasetOptions, and accepted by
// NewSessionMode and NewLiveSessionMode; the HTTP endpoints accept it
// as a "mode" field and crresolve/crctl as a -mode flag. The zero value is
// the SAT strategy with the specification's own trust mapping — exactly the
// pre-mode behaviour.
type ResolutionMode struct {
	// Strategy selects the resolution algorithm (default StrategySAT).
	Strategy Strategy
	// Trust holds trust-mapping statements (the rules-file trust: syntax,
	// e.g. `"hq" > "mirror"` or `"sensor-3" = 0.2`) layered over the
	// specification's trust mapping: sources named here override the
	// specification's weights, unmentioned sources keep them.
	Trust []string
}

// trustOver compiles the mode's trust overlay and merges it over base.
// With no overlay it returns base unchanged (pointer-identical).
func (m ResolutionMode) trustOver(base *constraint.TrustTable) (*constraint.TrustTable, error) {
	if len(m.Trust) == 0 {
		return base, nil
	}
	extra, err := constraint.CompileTrust(m.Trust)
	if err != nil {
		return nil, err
	}
	return constraint.MergeTrust(base, extra), nil
}

// effectiveSpec applies the mode's trust overlay to the model spec, shallow-
// copying it when the trust table changes so the caller's spec is untouched.
func (m ResolutionMode) effectiveSpec(spec *model.Spec) (*model.Spec, error) {
	eff, err := m.trustOver(spec.Trust)
	if err != nil {
		return nil, err
	}
	if eff == spec.Trust {
		return spec, nil
	}
	cp := *spec
	cp.Trust = eff
	return &cp, nil
}

// constraintFree reports whether no constraint can influence the entity:
// empty Σ, empty Γ and no explicit currency edges. Only then may a non-SAT
// strategy bypass the solver.
func constraintFree(m *model.Spec) bool {
	return len(m.Sigma) == 0 && len(m.Gamma) == 0 && len(m.TI.Edges) == 0
}

// fastResolve runs a degenerate non-SAT strategy when it applies, returning
// (nil, false) when the entity must go through the full framework instead.
func fastResolve(m *model.Spec, strat Strategy) (*Result, bool) {
	if strat == StrategySAT || !constraintFree(m) {
		return nil, false
	}
	sch := m.Schema()
	res := &Result{
		Valid:    true,
		Tuple:    relation.NewTuple(sch),
		Resolved: make(map[Attr]Value, sch.Len()),
		Rounds:   1,
		schema:   sch,
	}
	for _, a := range sch.Attrs() {
		v := fastPick(m.TI.Inst, m.Trust, a, strat)
		res.Tuple[a] = v
		res.Resolved[a] = v
	}
	return res, true
}

// fastPick selects one value for an attribute under a degenerate strategy.
// Null wins only when every observation is null.
func fastPick(in *relation.Instance, trust *constraint.TrustTable, a relation.Attr, strat Strategy) relation.Value {
	ids := in.TupleIDs()
	switch strat {
	case StrategyLatestWriterWins:
		out := relation.Null
		for _, id := range ids {
			if v := in.Value(id, a); !v.IsNull() {
				out = v
			}
		}
		return out

	case StrategyHighestTrust:
		out := relation.Null
		best := -1.0
		for _, id := range ids {
			v := in.Value(id, a)
			if v.IsNull() {
				continue
			}
			// >= so equal-trust ties fall to the latest writer.
			if w := trust.Weight(in.Source(id)); w >= best {
				best, out = w, v
			}
		}
		return out

	case StrategyConsensus:
		count := make(map[relation.Value]int)
		maxTrust := make(map[relation.Value]float64)
		lastID := make(map[relation.Value]relation.TupleID)
		for _, id := range ids {
			v := in.Value(id, a)
			if v.IsNull() {
				continue
			}
			count[v]++
			if w := trust.Weight(in.Source(id)); w > maxTrust[v] {
				maxTrust[v] = w
			}
			lastID[v] = id // ids ascend, so this ends at the latest writer
		}
		out := relation.Null
		picked := false
		for v, n := range count {
			if !picked {
				out, picked = v, true
				continue
			}
			switch {
			case n != count[out]:
				if n > count[out] {
					out = v
				}
			case maxTrust[v] != maxTrust[out]:
				if maxTrust[v] > maxTrust[out] {
					out = v
				}
			case lastID[v] > lastID[out]:
				out = v
			}
		}
		return out
	}
	return relation.Null
}

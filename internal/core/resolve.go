package core

import (
	"fmt"
	"time"

	"conflictres/internal/encode"
	"conflictres/internal/model"
	"conflictres/internal/relation"
	"conflictres/internal/sat"
)

// Oracle supplies user input during resolution. Answer receives a
// suggestion and returns validated true values for any subset of the
// suggested attributes (possibly values outside the active domain).
// Returning an empty map ends the interaction.
type Oracle interface {
	Answer(s Suggestion) map[relation.Attr]relation.Value
}

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc func(s Suggestion) map[relation.Attr]relation.Value

// Answer implements Oracle.
func (f OracleFunc) Answer(s Suggestion) map[relation.Attr]relation.Value { return f(s) }

// Options tunes Resolve.
type Options struct {
	// Encode configures the CNF encoder.
	Encode encode.Options
	// MaxRounds bounds user-interaction rounds; 0 means the default (8).
	MaxRounds int
	// UseNaiveDeduce switches true-value deduction to the NaiveDeduce
	// baseline (one SAT call per variable); for benchmarking.
	UseNaiveDeduce bool
	// FromScratch disables the incremental session engine: every round
	// re-encodes the specification into a fresh encoding and solver — the
	// pre-session baseline, kept for differential testing and the
	// ResolveLoop benchmarks. (Within one round the phases share the
	// round's solver; see scratchEngine.)
	FromScratch bool
	// Pipeline, when set, serves the resolution from the pipeline's pooled
	// skeleton and solver instead of allocating per entity. The pipeline
	// must belong to the spec's rule set and must not be used concurrently;
	// ignored under FromScratch.
	Pipeline *Pipeline
}

func (o Options) maxRounds() int {
	if o.MaxRounds <= 0 {
		return 8
	}
	return o.MaxRounds
}

// Timing breaks the elapsed time down by framework phase, aggregated over
// all rounds (Figures 8(c)/8(d) report exactly these three buckets).
type Timing struct {
	Validity time.Duration
	Deduce   time.Duration
	Suggest  time.Duration
}

// Total returns the summed phase time.
func (t Timing) Total() time.Duration { return t.Validity + t.Deduce + t.Suggest }

// Outcome is the result of running the resolution framework on one entity.
type Outcome struct {
	// Valid is false when the initial specification was found invalid; the
	// remaining fields are then empty.
	Valid bool
	// InvalidInput is true when a round of user input contradicted the
	// specification; the input was rolled back and resolution stopped at the
	// last consistent state (the framework's "revise" branch, Fig. 4).
	InvalidInput bool
	// Resolved maps each attribute with a determined true value to it.
	Resolved map[relation.Attr]relation.Value
	// Tuple is the resolved current tuple, null where undetermined.
	Tuple relation.Tuple
	// Rounds is the number of framework iterations executed (≥ 1).
	Rounds int
	// Interactions is the number of rounds in which the oracle supplied at
	// least one value.
	Interactions int
	// ResolvedByRound records how many attributes were resolved after each
	// round, starting with round 0 (no interaction yet).
	ResolvedByRound []int
	// ResolvedPerRound records the full resolved map after each round; the
	// benchmark harness scores accuracy at every interaction count from a
	// single run.
	ResolvedPerRound []map[relation.Attr]relation.Value
	// AnsweredPerRound records, per round, the cumulative set of attributes
	// whose values were supplied directly by the oracle up to (and before)
	// that round. The paper's precision/recall count *deduced* values only,
	// so scoring needs to subtract these.
	AnsweredPerRound []map[relation.Attr]bool
	// Suggestions records the suggestion issued in each interactive round.
	Suggestions []Suggestion
	// Timing aggregates per-phase elapsed time.
	Timing Timing
	// Session reports the resolution engine's solver-reuse counters (zero
	// when Options.FromScratch bypassed the session engine).
	Session SessionStats
}

// Complete reports whether every attribute has a determined true value.
func (o *Outcome) Complete(sch *relation.Schema) bool {
	return len(o.Resolved) == sch.Len()
}

// resolveEngine abstracts the per-round phase services so the framework
// loop is shared between the incremental session engine and the
// from-scratch baseline.
type resolveEngine interface {
	// beginRound prepares the round and returns the current encoding.
	beginRound() *encode.Encoding
	isValid() bool
	deduce(naive bool) *OrderSet
	suggest(od *OrderSet, resolved map[relation.Attr]relation.Value) Suggestion
	extend(answers map[relation.Attr]relation.Value)
	stats() SessionStats
}

// sessionEngine serves every phase from one Session: one encoding, one
// solver, incremental ⊕ Ot.
type sessionEngine struct{ s *Session }

func (e *sessionEngine) beginRound() *encode.Encoding { e.s.sync(); return e.s.Encoding() }
func (e *sessionEngine) isValid() bool                { ok, _ := e.s.IsValid(); return ok }
func (e *sessionEngine) deduce(naive bool) *OrderSet {
	if naive {
		od, _ := e.s.NaiveDeduce()
		return od
	}
	od, _ := e.s.DeduceOrder()
	return od
}
func (e *sessionEngine) suggest(od *OrderSet, resolved map[relation.Attr]relation.Value) Suggestion {
	return e.s.Suggest(od, resolved)
}
func (e *sessionEngine) extend(answers map[relation.Attr]relation.Value) { e.s.Extend(answers) }
func (e *sessionEngine) stats() SessionStats                             { return e.s.Stats() }

// scratchEngine is the pre-session baseline: re-encode the specification at
// the top of every round into a fresh encoding and solver. The round's
// phases share that one solver — Φ(Se) is loaded once per round, and
// validity, Fig. 5 deduction and naive-deduction queries run on the loaded
// solver instead of paying a redundant clause load per phase.
type scratchEngine struct {
	cur  *model.Spec
	opts encode.Options
	enc  *encode.Encoding

	solver *sat.Solver
}

func (e *scratchEngine) beginRound() *encode.Encoding {
	e.enc = encode.Build(e.cur, e.opts) //crlint:ignore encodingalias standalone Build allocates fresh storage; no Skeleton is reused
	e.solver = sat.New()
	e.enc.CNF().LoadInto(e.solver) // an inconsistent load leaves e.solver !Okay, which every phase checks
	return e.enc
}
func (e *scratchEngine) isValid() bool {
	ok, _ := IsValidWith(e.solver)
	return ok
}
func (e *scratchEngine) deduce(naive bool) *OrderSet {
	if naive {
		od, _ := NaiveDeduceWith(e.enc, e.solver)
		return od
	}
	od, _ := DeduceOrderWith(e.enc, e.solver)
	return od
}
func (e *scratchEngine) suggest(od *OrderSet, resolved map[relation.Attr]relation.Value) Suggestion {
	return Suggest(e.enc, od, resolved)
}
func (e *scratchEngine) extend(answers map[relation.Attr]relation.Value) {
	e.cur = e.cur.Extend(answers)
}
func (e *scratchEngine) stats() SessionStats { return SessionStats{} }

// Resolve runs the conflict-resolution framework of Fig. 4 on a
// specification: validate, deduce true values, and while attributes remain
// unresolved, generate a suggestion, apply the oracle's answers as new
// currency information (Se ⊕ Ot), and repeat. A nil oracle disables
// interaction (a single automatic round).
//
// By default all phases and rounds are served by one incremental Session
// per entity; Options.FromScratch selects the re-encode-per-round baseline.
func Resolve(spec *model.Spec, oracle Oracle, opts Options) (*Outcome, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid specification: %w", err)
	}
	var eng resolveEngine
	switch {
	case opts.FromScratch:
		eng = &scratchEngine{cur: spec, opts: opts.Encode}
	case opts.Pipeline != nil:
		eng = &sessionEngine{s: opts.Pipeline.NewSession(spec)}
	default:
		eng = &sessionEngine{s: NewSession(spec, opts.Encode)}
	}
	return resolveLoop(eng, spec.Schema(), oracle, opts)
}

// resolveLoop is the framework loop of Fig. 4 over an engine.
func resolveLoop(eng resolveEngine, sch *relation.Schema, oracle Oracle, opts Options) (*Outcome, error) {
	out := &Outcome{Valid: true}
	answered := make(map[relation.Attr]bool)
	var lastEnc *encode.Encoding
	var lastOD *OrderSet

	for round := 0; ; round++ {
		enc := eng.beginRound()

		// Step (1): validity checking.
		start := time.Now()
		valid := eng.isValid()
		out.Timing.Validity += time.Since(start)
		if !valid {
			if round == 0 {
				out.Valid = false
				out.Rounds = 1
				out.Session = eng.stats()
				return out, nil
			}
			// User input contradicted the specification: take the 'No'
			// branch of Fig. 4 — roll the input back and stop with the last
			// consistent state.
			out.InvalidInput = true
			break
		}

		// Step (2): true-value deduction.
		start = time.Now()
		od := eng.deduce(opts.UseNaiveDeduce)
		resolved := TrueValues(enc, od)
		out.Timing.Deduce += time.Since(start)
		lastEnc, lastOD = enc, od

		out.Resolved = resolved
		out.Rounds = round + 1
		out.ResolvedByRound = append(out.ResolvedByRound, len(resolved))
		snapshot := make(map[relation.Attr]relation.Value, len(resolved))
		for a, v := range resolved {
			snapshot[a] = v
		}
		out.ResolvedPerRound = append(out.ResolvedPerRound, snapshot)
		answeredSnap := make(map[relation.Attr]bool, len(answered))
		for a := range answered {
			answeredSnap[a] = true
		}
		out.AnsweredPerRound = append(out.AnsweredPerRound, answeredSnap)

		// Step (3): done when every attribute has a true value.
		if len(resolved) == sch.Len() || oracle == nil || round >= opts.maxRounds() {
			break
		}

		// Step (4): generate a suggestion and consult the oracle.
		start = time.Now()
		sug := eng.suggest(od, resolved)
		out.Timing.Suggest += time.Since(start)
		out.Suggestions = append(out.Suggestions, sug)

		answers := oracle.Answer(sug)
		// Drop answers that merely repeat already-resolved knowledge.
		for a, v := range answers {
			if rv, ok := resolved[a]; ok && relation.Equal(rv, v) {
				delete(answers, a)
			}
		}
		if len(answers) == 0 {
			break
		}
		out.Interactions++
		for a := range answers {
			answered[a] = true
		}
		eng.extend(answers)
	}

	out.Session = eng.stats()
	out.Tuple = relation.NewTuple(sch)
	for a, v := range out.Resolved {
		out.Tuple[a] = v
	}
	// Trust tie-break: attributes the currency orders could not decide take
	// the candidate a strictly most trusted source observed — into the
	// current tuple only, never into Resolved (it is a preference, not a
	// deduction). No-op under uniform trust, keeping the default pipeline
	// byte-identical.
	if lastEnc != nil {
		for a, v := range TrustFill(lastEnc, lastOD, out.Resolved) {
			out.Tuple[a] = v
		}
	}
	return out, nil
}

// SimulatedUser is the oracle used throughout the paper's experiments
// (Section VI): it knows the entity's ground-truth tuple and answers
// suggestions with the true values of the requested attributes — including
// values outside the active domain, mimicking "some with new values".
type SimulatedUser struct {
	Truth relation.Tuple
	// MaxPerRound bounds how many attributes are answered per round;
	// 0 means all requested.
	MaxPerRound int
	// Mute silences specific attributes (the user "does not know" them).
	Mute map[relation.Attr]bool
}

// Answer implements Oracle.
func (u *SimulatedUser) Answer(s Suggestion) map[relation.Attr]relation.Value {
	out := make(map[relation.Attr]relation.Value)
	for _, a := range s.Attrs {
		if u.Mute[a] {
			continue
		}
		if int(a) >= len(u.Truth) {
			continue
		}
		v := u.Truth[a]
		if v.IsNull() {
			continue
		}
		out[a] = v
		if u.MaxPerRound > 0 && len(out) >= u.MaxPerRound {
			break
		}
	}
	return out
}

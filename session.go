package conflictres

import (
	"fmt"
	"sync"
)

// Session drives the interactive resolution framework (Fig. 4) step by
// step while holding one incremental encoding and one SAT solver for the
// entity's whole lifetime: validity, deduction and suggestion all reuse the
// same learned-clause state, and each Apply folds the user's answers in as
// Se ⊕ Ot — incremental unit-clause additions instead of a re-encode.
//
// Session is a mutex around a LiveSession fed with answers only. It opens
// on a rule set of the specification's own compiled constraints, with a
// pipeline of its own outside every pool: a Session has no Close, so it
// could never give a pooled one back.
//
// Resolve remains the one-call loop; Session is for callers that mediate a
// real user conversation (ask, wait, apply, repeat) and for long-lived
// integrations that interleave deduction with other work.
//
// A Session is safe for concurrent use: every method holds an internal
// mutex, so calls from multiple goroutines serialize against each other and
// each call observes a consistent view. Multi-call sequences (for example
// Suggest followed by Apply) are NOT atomic as a unit — a server handing
// one session to several clients must add its own per-session lock around
// such sequences (the internal/live registry's entry lock does exactly
// that for crserve's sessions).
type Session struct {
	// mu guards ls, which is not safe for concurrent use.
	mu sync.Mutex
	ls *LiveSession
}

// NewSession starts an incremental resolution session on the specification.
func NewSession(spec *Spec) (*Session, error) {
	return NewSessionMode(spec, ResolutionMode{})
}

// NewSessionMode is NewSession with an explicit resolution mode. The mode is
// sticky: it is fixed at creation, its trust overlay merges into the
// specification for every deduction and suggestion, and Result applies its
// strategy — mirroring how the HTTP session endpoints pin a mode per session.
func NewSessionMode(spec *Spec, mode ResolutionMode) (*Session, error) {
	if spec == nil {
		return nil, fmt.Errorf("conflictres: NewSession needs a specification")
	}
	// The rule set shares the specification's constraint slices, so the
	// pipeline's skeleton recognizes the specification as its own.
	m := spec.m
	rs := &RuleSet{schema: spec.Schema(), sigma: m.Sigma, gamma: m.Gamma, trust: m.Trust}
	ls, err := rs.openLive(m, mode, rs.newPipeline)
	if err != nil {
		return nil, err
	}
	return &Session{ls: ls}, nil
}

// Valid reports whether the current specification (including all applied
// answers) has a valid completion. Validity gates every derived view:
// deduction on a spec that is UNSAT only under search would otherwise yield
// values read off an unsatisfiable formula.
func (s *Session) Valid() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ls.state.Valid
}

// Deduce returns the true values determined so far, keyed by attribute
// name. It returns nil when the current specification is invalid.
func (s *Session) Deduce() map[string]Value {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ls.state.Valid {
		return nil
	}
	_, deduced := s.ls.deduction()
	out := make(map[string]Value, len(deduced))
	for a, val := range deduced {
		out[s.ls.rs.schema.Name(a)] = val
	}
	return out
}

// Complete reports whether every attribute has a determined true value.
func (s *Session) Complete() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ls.state.Valid {
		return false
	}
	_, deduced := s.ls.deduction()
	return len(deduced) == s.ls.rs.schema.Len()
}

// Suggest computes the attribute set the user should confirm next, with
// candidate values. It fails when the current specification is invalid.
func (s *Session) Suggest() (Suggestion, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ls.Suggest()
}

// Apply folds user-validated true values, keyed by attribute name, into the
// session (Se ⊕ Ot). Values outside the data's active domain are allowed.
// If the input contradicts the specification, the session rolls back to its
// last consistent state (the framework's "revise" branch) and an error is
// returned.
func (s *Session) Apply(answers map[string]Value) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ls.Answer(answers)
}

// Interactions returns the number of successful Apply calls.
func (s *Session) Interactions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ls.state.Interactions
}

// Stats returns the session's solver-reuse counters, including the work of
// any sessions discarded by Apply's rollback.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ls.SessionStats()
}

// Result snapshots the session as a Result, mirroring Resolve's output for
// the rounds driven so far: one initial automatic round plus one per
// successful Apply. Timing stays zero — the step-wise API leaves phase
// timing to the caller's own clock.
func (s *Session) Result() *Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.ls.State()
	if st.Resolved == nil {
		st.Resolved = make(map[Attr]Value)
	}
	return &Result{
		Valid:        st.Valid,
		Tuple:        st.Tuple,
		Resolved:     st.Resolved,
		Rounds:       st.Interactions + 1,
		Interactions: st.Interactions,
		Session:      s.ls.SessionStats(),
		schema:       s.ls.rs.schema,
	}
}

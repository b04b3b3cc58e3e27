package conflictres

import (
	"fmt"
	"sync"

	"conflictres/internal/core"
	"conflictres/internal/encode"
	"conflictres/internal/relation"
)

// Session drives the interactive resolution framework (Fig. 4) step by
// step while holding one incremental encoding and one SAT solver for the
// entity's whole lifetime: validity, deduction and suggestion all reuse the
// same learned-clause state, and each Apply folds the user's answers in as
// Se ⊕ Ot — incremental unit-clause additions instead of a re-encode.
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
	// mu guards every field below. The underlying core.Session is not
	// concurrency-safe, so all access to it goes through this lock.
	mu           sync.Mutex
	sess         *core.Session
	sch          *Schema
	interactions int
	// prior accumulates the counters of core sessions replaced by Apply's
	// rollback path, so Stats reports the whole conversation's work.
	prior SessionStats
	// view caches validity, the derived order and the resolved values for
	// the current formula; Apply invalidates it. One round of the usual
	// loop (Complete → Suggest → Apply → Result) then deduces once, not
	// three times.
	view *sessionView
	// mode is the sticky resolution mode the session was created with; its
	// trust overlay is already merged into the core session's specification,
	// and Result applies its strategy.
	mode ResolutionMode
}

type sessionView struct {
	valid    bool
	od       *core.OrderSet
	resolved map[Attr]Value
}

// current returns the cached per-formula view, computing it on first use.
// Callers must hold s.mu.
func (s *Session) current() *sessionView {
	if s.view != nil {
		return s.view
	}
	v := &sessionView{}
	if ok, _ := s.sess.IsValid(); ok {
		v.valid = true
		v.od, _ = s.sess.DeduceOrder()
		v.resolved = core.TrueValues(s.sess.Encoding(), v.od)
	}
	s.view = v
	return v
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
	if err := spec.m.Validate(); err != nil {
		return nil, err
	}
	m, err := mode.effectiveSpec(spec.m)
	if err != nil {
		return nil, err
	}
	return &Session{
		sess: core.NewSession(m, encode.Options{}),
		sch:  spec.Schema(),
		mode: mode,
	}, nil
}

// Valid reports whether the current specification (including all applied
// answers) has a valid completion. The verdict is cached until Apply.
// Validity gates every derived view: deduction on a spec that is UNSAT
// only under search would otherwise yield values read off an
// unsatisfiable formula.
func (s *Session) Valid() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.current().valid
}

// Deduce returns the true values determined so far, keyed by attribute
// name. It returns nil when the current specification is invalid.
func (s *Session) Deduce() map[string]Value {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.current()
	if !v.valid {
		return nil
	}
	out := make(map[string]Value, len(v.resolved))
	for a, val := range v.resolved {
		out[s.sch.Name(a)] = val
	}
	return out
}

// Complete reports whether every attribute has a determined true value.
func (s *Session) Complete() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.current()
	return v.valid && len(v.resolved) == s.sch.Len()
}

// Suggest computes the attribute set the user should confirm next, with
// candidate values. It fails when the current specification is invalid.
func (s *Session) Suggest() (Suggestion, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.current()
	if !v.valid {
		return Suggestion{}, fmt.Errorf("conflictres: specification is invalid")
	}
	return s.sess.Suggest(v.od, v.resolved), nil
}

// Apply folds user-validated true values, keyed by attribute name, into the
// session (Se ⊕ Ot). Values outside the data's active domain are allowed.
// If the input contradicts the specification, the session rolls back to its
// last consistent state (the framework's "revise" branch) and an error is
// returned.
func (s *Session) Apply(answers map[string]Value) error {
	if len(answers) == 0 {
		return nil
	}
	conv := make(map[Attr]Value, len(answers))
	for name, v := range answers {
		a, ok := s.sch.Attr(name)
		if !ok {
			return fmt.Errorf("conflictres: unknown attribute %q", name)
		}
		conv[a] = v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.sess.Spec() // Extend clones; prev stays the consistent state
	s.sess.Extend(conv)
	s.view = nil // formula changed: every derived view is stale
	if ok, _ := s.sess.IsValid(); !ok {
		// Roll back to the last consistent state, carrying the discarded
		// session's reuse counters into the running totals.
		s.prior = addStats(s.prior, s.sess.Stats())
		s.sess = core.NewSession(prev, encode.Options{})
		return fmt.Errorf("conflictres: input contradicts the specification; rolled back")
	}
	s.interactions++
	return nil
}

func addStats(a, b SessionStats) SessionStats {
	a.Rebuilds += b.Rebuilds
	a.Extends += b.Extends
	a.Solves += b.Solves
	a.ClausesLoaded += b.ClausesLoaded
	return a
}

// Interactions returns the number of successful Apply calls.
func (s *Session) Interactions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.interactions
}

// Stats returns the session's solver-reuse counters, including the work of
// any sessions discarded by Apply's rollback.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return addStats(s.prior, s.sess.Stats())
}

// Result snapshots the session as a Result, mirroring Resolve's output for
// the rounds driven so far: one initial automatic round plus one per
// successful Apply. Timing stays zero — the step-wise API leaves phase
// timing to the caller's own clock.
func (s *Session) Result() *Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.current()
	res := &Result{
		Valid:        v.valid,
		Resolved:     make(map[Attr]Value, len(v.resolved)),
		Rounds:       s.interactions + 1,
		Interactions: s.interactions,
		Session:      addStats(s.prior, s.sess.Stats()),
		schema:       s.sch,
	}
	if !v.valid {
		return res
	}
	if fr, ok := fastResolve(s.sess.Spec(), s.mode.Strategy); ok {
		fr.Rounds = res.Rounds
		fr.Interactions = res.Interactions
		fr.Session = res.Session
		return fr
	}
	for a, val := range v.resolved {
		res.Resolved[a] = val
	}
	res.Tuple = relation.NewTuple(s.sch)
	for a, val := range res.Resolved {
		res.Tuple[a] = val
	}
	trustFillTuple(s.sess, v.od, res)
	return res
}

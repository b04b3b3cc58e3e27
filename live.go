package conflictres

import (
	"errors"
	"fmt"

	"conflictres/internal/core"
	"conflictres/internal/model"
	"conflictres/internal/relation"
)

// LiveOrder is one piece of currency information accompanying an upsert:
// tuple T1 is no more current than tuple T2 in the named attribute. Indices
// are positions in the entity's accumulated row log, in arrival order; they
// may reference rows appended by the same upsert.
type LiveOrder struct {
	Attr   string
	T1, T2 int
}

// LiveState is a self-contained snapshot of a live session's resolution
// outcome. Every field is copied out of the session's encoding when the
// snapshot is taken: encoding storage is recycled when the session's
// pipeline is reused (skeleton builds invalidate the previous encoding's
// slices), so the state must never alias it.
type LiveState struct {
	// Valid is false when the accumulated rows admit no valid completion;
	// Resolved and Tuple are then empty.
	Valid bool
	// Rows is the number of data tuples accumulated so far.
	Rows int
	// Resolved maps each determined attribute to its true value.
	Resolved map[Attr]Value
	// Tuple is the resolved current tuple (null where undetermined).
	Tuple Tuple
	// Interactions counts the answer rounds accepted so far.
	Interactions int
	// Extends counts deltas applied incrementally to the loaded formula;
	// Rebuilds counts full re-encodes — non-monotone deltas and answer
	// rollbacks (the initial build is not counted).
	Extends  int
	Rebuilds int
}

// Complete reports whether every attribute has a determined true value.
func (st LiveState) Complete() bool { return st.Valid && len(st.Resolved) == len(st.Tuple) }

func (st LiveState) clone() LiveState {
	out := st
	if st.Resolved != nil {
		out.Resolved = make(map[Attr]Value, len(st.Resolved))
		for a, v := range st.Resolved {
			out.Resolved[a] = v
		}
	}
	out.Tuple = st.Tuple.Clone()
	return out
}

// LiveSession keeps one entity's resolution state warm across deltas: the
// stateful counterpart of Resolve. Both kinds of delta of the framework
// (Fig. 4) extend Se on the one loaded formula and then read the Fig. 5
// fixpoint. Upsert folds newly arrived rows in — incrementally when the
// delta is monotone, via automatic re-encode otherwise — and keeps rows
// that make the entity invalid. Answer folds a user's validated values in
// (Se ⊕ Ot) and rolls a contradicting round back. After either, the
// resolved state is recomputed, so consumers always read a result
// consistent with every delta accepted so far.
//
// A LiveSession holds a pipeline (encoding skeleton + arena solver) for its
// whole lifetime. NewLiveSession checks it out of the rule set's pool and
// Close returns it.
// Sessions are not safe for concurrent use; the live registry serializes
// access per entity, and Session wraps one in a mutex.
type LiveSession struct {
	rs   *RuleSet
	pl   *pipeline
	sess *core.Session
	// prior accumulates the counters of core sessions discarded by Answer's
	// rollback, so SessionStats reports the whole lifetime's work.
	prior SessionStats
	state LiveState
	// od and deduced are the derived order and the deduced true values of
	// the current valid formula, kept for Suggest; see deduction. deduced
	// differs from state.Resolved only where a degenerate strategy picked
	// the values.
	od      *core.OrderSet
	deduced map[Attr]Value
	// mode is the sticky resolution mode fixed at creation; its trust
	// overlay is merged into the session's specification and refresh applies
	// its strategy.
	mode ResolutionMode
}

var errLiveClosed = errors.New("conflictres: live session is closed")

// NewLiveSession opens a live session seeded with the entity's initial rows
// (at least one) and optional currency edges.
func (rs *RuleSet) NewLiveSession(rows []Tuple, orders []LiveOrder) (*LiveSession, error) {
	return rs.NewLiveSessionMode(rows, nil, orders, ResolutionMode{})
}

// NewLiveSessionMode is NewLiveSession with per-row source tags and an
// explicit resolution mode. sources, when non-nil, must parallel rows; empty
// entries leave the row untagged (weight 0 under any trust mapping). The mode
// is sticky for the session's lifetime, like the rule set itself.
func (rs *RuleSet) NewLiveSessionMode(rows []Tuple, sources []string, orders []LiveOrder, mode ResolutionMode) (*LiveSession, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("conflictres: live session needs at least one row")
	}
	if sources != nil && len(sources) != len(rows) {
		return nil, fmt.Errorf("conflictres: %d sources for %d rows", len(sources), len(rows))
	}
	in := relation.NewInstance(rs.schema)
	for i, r := range rows {
		src := ""
		if sources != nil {
			src = sources[i]
		}
		if _, err := in.AddSourced(r, src); err != nil {
			return nil, fmt.Errorf("conflictres: row %d: %w", i, err)
		}
	}
	edges, err := rs.liveEdges(orders, in.Len())
	if err != nil {
		return nil, err
	}
	m := model.NewCompiledSpec(model.NewTemporal(in), rs.sigma, rs.gamma)
	m.Trust = rs.trust
	m.TI.Edges = edges
	return rs.openLive(m, mode, rs.acquirePipeline)
}

// openLive validates the specification, merges the mode's trust overlay
// into it and loads it on a pipeline from checkout: the rule set's pool, or
// a fresh one for a session that is never closed.
func (rs *RuleSet) openLive(m *model.Spec, mode ResolutionMode, checkout func() *pipeline) (*LiveSession, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	m, err := mode.effectiveSpec(m)
	if err != nil {
		return nil, err
	}
	pl := checkout()
	ls := &LiveSession{rs: rs, pl: pl, sess: pl.p.NewSession(m), mode: mode}
	ls.refresh()
	return ls, nil
}

// Upsert folds new rows (and optional currency edges) into the session and
// recomputes the resolved state. It reports whether the delta was applied
// incrementally (false: a non-monotone delta forced a re-encode — same
// outcome, full rebuild cost).
//
// Rows that make the entity invalid are not rolled back: an observation
// contradicting the constraints is a legitimate entity state, surfaced as
// State().Valid == false and repaired by later rows or orders.
func (ls *LiveSession) Upsert(rows []Tuple, orders []LiveOrder) (bool, error) {
	return ls.UpsertSourced(rows, nil, orders)
}

// UpsertSourced is Upsert with per-row source tags; sources, when non-nil,
// must parallel rows. Source tags only influence trust scoring — they are
// not encoded into the solver's formula — so tagging composes with both the
// incremental and the rebuild extension path.
func (ls *LiveSession) UpsertSourced(rows []Tuple, sources []string, orders []LiveOrder) (bool, error) {
	if ls.sess == nil {
		return false, errLiveClosed
	}
	if sources != nil && len(sources) != len(rows) {
		return false, fmt.Errorf("conflictres: %d sources for %d rows", len(sources), len(rows))
	}
	want := ls.rs.schema.Len()
	for i, r := range rows {
		if len(r) != want {
			return false, fmt.Errorf("conflictres: row %d has %d values, schema has %d", i, len(r), want)
		}
	}
	before := ls.sess.Spec().TI.Inst.Len()
	total := before + len(rows)
	edges, err := ls.rs.liveEdges(orders, total)
	if err != nil {
		return false, err
	}
	if len(rows) == 0 && len(edges) == 0 {
		return true, nil
	}
	extended := ls.sess.ExtendRows(rows, edges)
	if sources != nil {
		in := ls.sess.Spec().TI.Inst
		for i, src := range sources {
			if src != "" {
				in.SetSource(relation.TupleID(before+i), src)
			}
		}
	}
	ls.refresh()
	return extended, nil
}

// Answer folds one round of user-validated true values, keyed by attribute
// name, into the session (Se ⊕ Ot) and recomputes the resolved state.
// Values outside the data's active domain are allowed. Unlike rows, a round
// that contradicts the specification is not kept: the session rolls back to
// its last consistent state (the framework's "revise" branch) by rebuilding
// the previous specification on its own pipeline, and an error is returned.
func (ls *LiveSession) Answer(answers map[string]Value) error {
	if ls.sess == nil {
		return errLiveClosed
	}
	if len(answers) == 0 {
		return nil
	}
	conv := make(map[Attr]Value, len(answers))
	for name, v := range answers {
		a, ok := ls.rs.schema.Attr(name)
		if !ok {
			return fmt.Errorf("conflictres: unknown attribute %q", name)
		}
		conv[a] = v
	}
	prev := ls.sess.Spec() // Extend clones; prev stays the consistent state
	ls.sess.Extend(conv)
	if ok, _ := ls.sess.IsValid(); !ok {
		ls.prior = addStats(ls.prior, ls.sess.Stats())
		ls.sess = ls.pl.p.NewSession(prev)
		// The rebuilt encoding may number the domains differently, so the
		// order kept for Suggest is derived again.
		ls.refresh()
		return fmt.Errorf("conflictres: input contradicts the specification; rolled back")
	}
	ls.state.Interactions++
	ls.refresh()
	return nil
}

// Suggest computes the attribute set the user should confirm next, with
// candidate values (Algorithm Suggest, Fig. 7), from the order derived by
// the last refresh. It fails when the current state is invalid.
func (ls *LiveSession) Suggest() (Suggestion, error) {
	if ls.sess == nil {
		return Suggestion{}, errLiveClosed
	}
	if !ls.state.Valid {
		return Suggestion{}, fmt.Errorf("conflictres: specification is invalid")
	}
	return ls.sess.Suggest(ls.deduction()), nil
}

// deduction returns the derived order and the deduced true values of the
// current formula, which must be valid. refresh derives them unless a
// degenerate strategy's closed-form pick made the state; then the first
// caller that needs them derives them.
func (ls *LiveSession) deduction() (*core.OrderSet, map[Attr]Value) {
	if ls.od == nil {
		ls.od, _ = ls.sess.DeduceOrder()
		ls.deduced = core.TrueValues(ls.sess.Encoding(), ls.od)
	}
	return ls.od, ls.deduced
}

// State returns the resolution snapshot for all rows seen so far. The
// snapshot is an independent copy; it stays stable across later upserts and
// across Close.
func (ls *LiveSession) State() LiveState { return ls.state.clone() }

// Rows returns the number of data tuples accumulated so far.
func (ls *LiveSession) Rows() int { return ls.state.Rows }

// Spec returns an independent copy of the accumulated specification — every
// row and edge seen so far. Resolving it from scratch must agree with
// State() byte for byte; the differential suite pins this.
func (ls *LiveSession) Spec() *Spec {
	if ls.sess == nil {
		return nil
	}
	return &Spec{m: ls.sess.Spec().Clone()}
}

// SessionStats exposes the underlying engine counters (rebuilds include the
// initial build), including the work of sessions discarded by Answer's
// rollback.
func (ls *LiveSession) SessionStats() SessionStats {
	if ls.sess == nil {
		return SessionStats{}
	}
	return addStats(ls.prior, ls.sess.Stats())
}

func addStats(a, b SessionStats) SessionStats {
	a.Rebuilds += b.Rebuilds
	a.Extends += b.Extends
	a.Solves += b.Solves
	a.ClausesLoaded += b.ClausesLoaded
	return a
}

// Close returns the session's pipeline to the rule set's pool. The last
// snapshot remains readable via State; every other method fails. Close is
// idempotent.
func (ls *LiveSession) Close() {
	if ls.pl == nil {
		return
	}
	// state was copied out of the encoding by refresh(); once the pipeline
	// is back in the pool its skeleton may rebuild and recycle the
	// encoding's storage under a different entity.
	ls.rs.releasePipeline(ls.pl)
	ls.pl = nil
	ls.sess = nil
}

// refresh recomputes the copied-out state snapshot from the session.
// Deduction reads the Fig. 5 fixpoint of the accumulated formula — the same
// one a from-scratch resolution computes, whatever the session's earlier
// searches learnt (see core.Session.DeduceOrder).
func (ls *LiveSession) refresh() {
	stats := ls.SessionStats()
	st := LiveState{
		Rows:         ls.sess.Spec().TI.Inst.Len(),
		Interactions: ls.state.Interactions,
		Extends:      stats.Extends,
		Rebuilds:     stats.Rebuilds - 1, // the initial build is not a fallback
	}
	ls.od, ls.deduced = nil, nil
	if ok, _ := ls.sess.IsValid(); ok {
		st.Valid = true
		if fr, ok := fastResolve(ls.sess.Spec(), ls.mode.Strategy); ok {
			// Degenerate strategy on a constraint-free entity: closed-form
			// pick, no deduction. fastResolve builds fresh maps and tuples,
			// so the snapshot cannot alias encoding storage.
			st.Resolved, st.Tuple = fr.Resolved, fr.Tuple
		} else {
			od, deduced := ls.deduction()
			st.Resolved = deduced
			st.Tuple = relation.NewTuple(ls.rs.schema)
			for a, v := range st.Resolved {
				st.Tuple[a] = v
			}
			// Trust preference layer: fill still-open attributes of the
			// current tuple from the most trusted surviving candidates.
			for a, v := range core.TrustFill(ls.sess.Encoding(), od, st.Resolved) {
				st.Tuple[a] = v
			}
		}
	}
	ls.state = st
}

// liveEdges validates and converts wire-level orders against a row count.
func (rs *RuleSet) liveEdges(orders []LiveOrder, total int) ([]model.OrderEdge, error) {
	if len(orders) == 0 {
		return nil, nil
	}
	edges := make([]model.OrderEdge, 0, len(orders))
	for i, o := range orders {
		a, ok := rs.schema.Attr(o.Attr)
		if !ok {
			return nil, fmt.Errorf("conflictres: order %d: unknown attribute %q", i, o.Attr)
		}
		if o.T1 < 0 || o.T2 < 0 || o.T1 >= total || o.T2 >= total {
			return nil, fmt.Errorf("conflictres: order %d: tuple index out of range: %d, %d (rows=%d)",
				i, o.T1, o.T2, total)
		}
		edges = append(edges, model.OrderEdge{
			Attr: a,
			T1:   relation.TupleID(o.T1),
			T2:   relation.TupleID(o.T2),
		})
	}
	return edges, nil
}

package conflictres

import (
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
	// Extends counts upsert deltas applied incrementally to the loaded
	// formula; Rebuilds counts non-monotone deltas that forced a full
	// re-encode (the initial build is not counted).
	Extends  int
	Rebuilds int
}

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

// LiveSession is the change-data-capture counterpart of Resolve: it keeps
// one entity's resolution state warm across row arrivals. Each Upsert folds
// the new rows into the loaded formula — incrementally when the delta is
// monotone, via automatic re-encode otherwise — and recomputes the resolved
// state, so consumers always read a result consistent with every row seen
// so far.
//
// A LiveSession holds a pooled pipeline (encoding skeleton + arena solver)
// checked out of its rule set for its whole lifetime; Close returns it.
// Sessions are not safe for concurrent use; the live registry serializes
// access per entity.
type LiveSession struct {
	rs    *RuleSet
	pl    *pipeline
	sess  *core.Session
	state LiveState
	// mode is the sticky resolution mode fixed at creation; its trust
	// overlay is merged into the session's specification and refresh applies
	// its strategy.
	mode ResolutionMode
}

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
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m, err = mode.effectiveSpec(m); err != nil {
		return nil, err
	}
	pl := rs.acquirePipeline()
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
		return false, fmt.Errorf("conflictres: live session is closed")
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
// initial build).
func (ls *LiveSession) SessionStats() SessionStats {
	if ls.sess == nil {
		return SessionStats{}
	}
	return ls.sess.Stats()
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
	st := LiveState{Rows: ls.sess.Spec().TI.Inst.Len()}
	stats := ls.sess.Stats()
	st.Extends = stats.Extends
	st.Rebuilds = stats.Rebuilds - 1 // the initial build is not a fallback
	if ok, _ := ls.sess.IsValid(); ok {
		if fr, ok := fastResolve(ls.sess.Spec(), ls.mode.Strategy); ok {
			// Degenerate strategy on a constraint-free entity: closed-form
			// pick, no deduction. fastResolve builds fresh maps and tuples,
			// so the snapshot cannot alias encoding storage.
			st.Valid = true
			st.Resolved = fr.Resolved
			st.Tuple = fr.Tuple
		} else if od, ok := ls.sess.DeduceOrder(); ok {
			st.Valid = true
			enc := ls.sess.Encoding()
			st.Resolved = core.TrueValues(enc, od)
			st.Tuple = relation.NewTuple(ls.rs.schema)
			for a, v := range st.Resolved {
				st.Tuple[a] = v
			}
			// Trust preference layer: fill still-open attributes of the
			// current tuple from the most trusted surviving candidates.
			for a, v := range core.TrustFill(enc, od, st.Resolved) {
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

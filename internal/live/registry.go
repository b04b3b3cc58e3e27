// Package live keeps per-entity resolution state warm across deltas: the
// stateful counterpart of the batch layer. A Registry maps client-chosen
// keys to entities, and every accepted delta is appended to the entity's
// row-log. The delta kind, fixed by an entity's first delta like its rules
// and mode, decides which facade holds the state:
//
//   - Rows deltas (change-data capture) fold new rows and currency edges
//     into a LiveSession — a pooled pipeline held for the entry's lifetime —
//     incrementally when the delta is monotone, by automatic re-encode
//     otherwise. Rows are never rolled back.
//   - Answers deltas (interactive resolution) fold one round of user
//     answers into a conflictres.Session (Se ⊕ Ot). The first delta seeds
//     the session with the entity's rows; a round that contradicts the
//     specification is rolled back and not logged.
//
// Both facades deduce the one Fig. 5 fixpoint (core.Session.DeduceOrder),
// so their outcomes match from-scratch resolution of the same rows.
//
// The freshly resolved state is copied out before anything else can touch
// the encoding. Capacity is bounded by LRU eviction, idle entries expire by
// TTL (lazily and by a periodic Sweep), and eviction, expiry, removal and
// shutdown all route through closeAll, which serializes with in-flight
// deltas on the entry mutex and returns a pooled pipeline exactly once.
package live

import (
	"container/list"
	"errors"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"conflictres"
)

var (
	// ErrBusy reports a concurrent operation in flight on the same entity;
	// upserts never queue silently (the server answers 409).
	ErrBusy = errors.New("live: entity busy")
	// ErrRulesChanged reports an upsert whose rule set differs from the one
	// the entity was created under; delete the entity to change rules.
	ErrRulesChanged = errors.New("live: rule set changed for existing entity")
	// ErrShutdown reports an operation against a closed registry.
	ErrShutdown = errors.New("live: registry closed")
	// ErrFaulted reports an upsert rejected by the registry's storage fault
	// hook before any state changed: the delta was NOT applied and must not
	// be acknowledged (the server answers 503 so clients retry).
	ErrFaulted = errors.New("live: storage fault")
	// ErrNotFound reports an answer round for a key that holds no entity:
	// never seeded, expired, evicted or removed.
	ErrNotFound = errors.New("live: no such entity")
	// ErrMismatch reports a delta of the other kind than the entity's, or a
	// second seed for an existing answers entity.
	ErrMismatch = errors.New("live: delta does not fit the entity")
)

// Kind is a delta's kind; see the package comment for what each kind means.
type Kind uint8

const (
	// Rows deltas carry rows, source tags and currency edges.
	Rows Kind = iota
	// Answers deltas carry one round of user answers; an answers entity's
	// first delta is its seed instead (Op.Seed).
	Answers
)

// readsWait reports whether a read of a busy entity waits out the delta in
// flight (answers: after a timed-out round, a read is how a client learns
// whether it landed) instead of failing with ErrBusy (rows: reads are
// normally served from a cache, and a miss must not queue behind a write).
func (k Kind) readsWait() bool { return k == Answers }

// Delta is one accepted upsert, recorded in the entity's row-log in arrival
// order. Replaying a log against a fresh entity reproduces its state
// exactly, which is what snapshot/restore and replica warm-up rely on.
type Delta struct {
	Kind    Kind
	Rows    []conflictres.Tuple
	Sources []string
	Orders  []conflictres.LiveOrder
	// EntityID is the client's name for an answers entity, logged with its
	// seed.
	EntityID string
	// Answers is one answer round: true values keyed by attribute name.
	Answers map[string]conflictres.Value
}

// Op is one upsert operation: the delta plus the binding metadata the
// registry records for replay. Kind, Seed, EntityID, Mode and RulesWire
// only take effect at creation (all are sticky per entity, like the rules).
type Op struct {
	Kind    Kind
	Rows    []conflictres.Tuple
	Sources []string
	Orders  []conflictres.LiveOrder
	// Seed is the bound specification that opens an answers entity; its
	// rows, source tags and orders become the entity's first logged delta.
	// Only a seeded answers op creates; answer rounds need a live entity.
	Seed     *conflictres.Spec
	EntityID string
	Answers  map[string]conflictres.Value
	Mode     conflictres.ResolutionMode
	// RulesWire is the rule set's wire encoding, retained at creation so a
	// snapshot re-ships the exact blob the entity was created under rather
	// than re-deriving one from the compiled form.
	RulesWire []byte
}

// EntityLog is the replayable record of one live entity, handed to a
// Snapshot callback under the entity's lock (no delta can land mid-read).
// The slices alias registry state: serialize before returning, don't retain.
type EntityLog struct {
	Key       string
	RulesWire []byte
	Mode      conflictres.ResolutionMode
	Deltas    []Delta
}

// facade is the resolution state an entry holds, one implementation per
// delta kind.
type facade interface {
	apply(op *Op) (extended bool, err error)
	fill(res *Result)
	stats() conflictres.SessionStats
	close()
}

// rowsFacade holds a rows entity: deltas are never rolled back.
type rowsFacade struct{ ls *conflictres.LiveSession }

func (f rowsFacade) apply(op *Op) (bool, error) {
	return f.ls.UpsertSourced(op.Rows, op.Sources, op.Orders)
}
func (f rowsFacade) fill(res *Result)                { res.State = f.ls.State() }
func (f rowsFacade) stats() conflictres.SessionStats { return f.ls.SessionStats() }
func (f rowsFacade) close()                          { f.ls.Close() }

// answersFacade holds an answers entity. Its outcome and suggestion are
// recomputed once per accepted round and shared read-only until the next.
type answersFacade struct {
	sess       *conflictres.Session
	entityID   string
	outcome    *conflictres.Result
	suggestion *conflictres.Suggestion
}

// apply folds one answer round in. Session.Apply rolls a contradicting
// round back itself, so a rejected round leaves the state as it was.
func (f *answersFacade) apply(op *Op) (bool, error) {
	if err := f.sess.Apply(op.Answers); err != nil {
		return false, err
	}
	f.refresh()
	return true, nil
}

func (f *answersFacade) refresh() {
	f.outcome = f.sess.Result()
	f.suggestion = nil
	if !f.outcome.Valid || f.outcome.Complete() {
		return
	}
	if sug, err := f.sess.Suggest(); err == nil && len(sug.Attrs) > 0 {
		f.suggestion = &sug
	}
}

func (f *answersFacade) fill(res *Result) {
	res.Outcome, res.Suggestion, res.EntityID = f.outcome, f.suggestion, f.entityID
}
func (f *answersFacade) stats() conflictres.SessionStats { return f.sess.Stats() }
func (f *answersFacade) close()                          {}

// open builds the facade for a created entity, returning it with the
// entity's first delta.
func open(rules *conflictres.RuleSet, op *Op) (facade, Delta, error) {
	if op.Kind == Rows {
		ls, err := rules.NewLiveSessionMode(op.Rows, op.Sources, op.Orders, op.Mode)
		if err != nil {
			return nil, Delta{}, err
		}
		return rowsFacade{ls}, logged(op), nil
	}
	sess, err := conflictres.NewSessionMode(op.Seed, op.Mode)
	if err != nil {
		return nil, Delta{}, err
	}
	f := &answersFacade{sess: sess, entityID: op.EntityID}
	f.refresh()
	return f, seedDelta(op.Seed, op.EntityID), nil
}

// logged copies op's delta for the row-log: copies, not aliases — the
// caller's decode buffers are theirs to reuse, and Snapshot hands these
// slices out later.
func logged(op *Op) Delta {
	return Delta{
		Kind:    op.Kind,
		Rows:    append([]conflictres.Tuple(nil), op.Rows...),
		Sources: append([]string(nil), op.Sources...),
		Orders:  append([]conflictres.LiveOrder(nil), op.Orders...),
		Answers: maps.Clone(op.Answers),
	}
}

// seedDelta records the specification an answers entity was opened on.
func seedDelta(spec *conflictres.Spec, entityID string) Delta {
	in, sch := spec.Instance(), spec.Schema()
	d := Delta{Kind: Answers, EntityID: entityID, Sources: in.Sources()}
	for i := 0; i < in.Len(); i++ {
		d.Rows = append(d.Rows, in.Tuple(conflictres.TupleID(i)).Clone())
	}
	for _, e := range spec.Model().TI.Edges {
		d.Orders = append(d.Orders, conflictres.LiveOrder{Attr: sch.Name(e.Attr), T1: int(e.T1), T2: int(e.T2)})
	}
	return d
}

// sub returns the work done between two cumulative stats readings.
func sub(after, before conflictres.SessionStats) conflictres.SessionStats {
	return conflictres.SessionStats{
		Rebuilds:      after.Rebuilds - before.Rebuilds,
		Extends:       after.Extends - before.Extends,
		Solves:        after.Solves - before.Solves,
		ClausesLoaded: after.ClausesLoaded - before.ClausesLoaded,
	}
}

// entry is one live entity. mu serializes every touch of f — deltas, state
// reads, and the close path (eviction/expiry/shutdown) — so a pooled
// pipeline is never released while an extend is in flight. closed flips
// exactly once, under mu, when the facade closes. key, kind and rules are
// fixed when the entry is inserted.
type entry struct {
	key       string
	kind      Kind
	rulesHash string
	rules     *conflictres.RuleSet

	mu        sync.Mutex
	closed    bool
	f         facade
	rulesWire []byte                     // creation-time rules blob, for snapshots
	mode      conflictres.ResolutionMode // creation-time mode, for snapshots
	log       []Delta                    // row-log: every accepted delta in order

	lastUse time.Time // TTL clock, guarded by the registry mutex
}

// Counters are a registry's monotonic lifecycle and delta counters,
// surfaced in /metrics.
type Counters struct {
	Created  int64
	Expired  int64
	Evicted  int64
	Extends  int64 // deltas applied incrementally
	Rebuilds int64 // non-monotone rows deltas (full re-encode)
}

// Result is the copied-out outcome of a registry operation: the entity's
// resolution state over every delta seen so far.
type Result struct {
	Key string
	// Schema is the schema of the rule set the entity is bound to, for
	// encoding the state onto the wire.
	Schema *conflictres.Schema
	// State is a rows entity's independent snapshot (see
	// conflictres.LiveState).
	State conflictres.LiveState
	// Outcome is an answers entity's resolution outcome, and Suggestion its
	// next request for input (nil when complete or invalid). Both are
	// shared read-only: the next round replaces them rather than mutating.
	Outcome    *conflictres.Result
	Suggestion *conflictres.Suggestion
	// EntityID is an answers entity's seed EntityID.
	EntityID string
	// Stats is the solver work this operation did, set even when the delta
	// is rejected (a contradicting round still solved).
	Stats conflictres.SessionStats
	// Created reports that this operation opened the entity.
	Created bool
	// Extended reports whether the upsert delta was applied incrementally
	// (true for creates: the initial build is neither).
	Extended bool
}

// Registry is the keyed store of live entities. Safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	cap   int // <= 0: unbounded
	ttl   time.Duration
	ll    *list.List               // front = most recently used; holds *entry
	m     map[string]*list.Element // key -> element in ll
	down  bool
	fault func() error // storage fault hook; nil in production without chaos

	created  atomic.Int64
	expired  atomic.Int64
	evicted  atomic.Int64
	extends  atomic.Int64
	rebuilds atomic.Int64
}

// NewRegistry builds a registry with the given capacity cap (<= 0 means
// unbounded) and TTL (<= 0 means no expiry).
func NewRegistry(capacity int, ttl time.Duration) *Registry {
	return &Registry{cap: capacity, ttl: ttl, ll: list.New(), m: make(map[string]*list.Element)}
}

// SetFault installs a storage fault hook, consulted once per Upsert before
// any state changes: a non-nil error rejects the delta with ErrFaulted.
// Chaos suites wire an injector here; nil removes the hook. Call before
// serving traffic — the hook pointer is read without the registry lock.
func (r *Registry) SetFault(f func() error) { r.fault = f }

// Upsert folds op's delta into the entity under key. A rows op creates the
// entity when absent; an answers op creates only with a Seed, and an
// answer round for an absent key fails with ErrNotFound. rulesHash
// identifies the rule set AND the resolution mode; at creation an existing
// entity refuses a different hash with ErrRulesChanged (mode is sticky per
// entity, like the rules — delete the entity to change either), and a delta
// of the other kind, or a second seed, fails with ErrMismatch. op.Sources,
// when non-nil, must parallel op.Rows. A concurrent operation on the same
// entity yields ErrBusy. Every accepted delta is appended to the entity's
// row-log before the call returns, so an acknowledged upsert is always
// replayable; a rejected one leaves state and log untouched. The returned
// state covers every delta the entity has accepted.
func (r *Registry) Upsert(key string, rules *conflictres.RuleSet, rulesHash string, op Op) (Result, error) {
	for {
		var fresh *entry
		if op.Kind == Rows || op.Seed != nil {
			fresh = &entry{key: key, kind: op.Kind, rulesHash: rulesHash, rules: rules}
		}
		e, victims, err := r.checkout(key, fresh, false)
		closeAll(victims)
		if err != nil {
			return Result{}, err
		}
		created := e == fresh
		if e.closed {
			// Lost a race with eviction between lookup and lock; the entry
			// is already out of the map, so the next round starts fresh.
			e.mu.Unlock()
			continue
		}
		if !created && (e.kind != op.Kind || op.Seed != nil) {
			e.mu.Unlock()
			return Result{}, ErrMismatch
		}
		if f := r.fault; f != nil {
			if ferr := f(); ferr != nil {
				e.mu.Unlock()
				if created {
					r.drop(key, e)
				}
				return Result{}, errors.Join(ErrFaulted, ferr)
			}
		}
		res := Result{Key: key, Created: created}
		var d Delta
		if created {
			if e.f, d, err = open(rules, &op); err != nil {
				e.mu.Unlock()
				r.drop(key, e)
				return Result{}, err
			}
			e.mode = op.Mode
			e.rulesWire = append([]byte(nil), op.RulesWire...)
			res.Stats = e.f.stats()
		} else {
			before := e.f.stats()
			extended, err := e.f.apply(&op)
			res.Stats = sub(e.f.stats(), before)
			if err != nil {
				e.mu.Unlock()
				return res, err
			}
			res.Extended = extended
			if extended {
				r.extends.Add(1)
			} else {
				r.rebuilds.Add(1)
			}
			d = logged(&op)
		}
		e.log = append(e.log, d)
		e.fill(&res)
		e.mu.Unlock()
		return res, nil
	}
}

// fill copies the entry's current state into res. Callers hold e.mu.
func (e *entry) fill(res *Result) {
	res.Schema = e.rules.Schema()
	e.f.fill(res)
}

// Snapshot walks every live entity, handing each one's replayable log to
// fn. Each callback runs under that entity's lock, so the log is a
// consistent point-in-time view; an fn error aborts the walk. Entities
// whose creation predates the row-log (none in practice: every accepted
// upsert logs) or that race a concurrent close are skipped, and the skip
// count is returned alongside the number snapshotted.
func (r *Registry) Snapshot(fn func(EntityLog) error) (written, skipped int, err error) {
	r.mu.Lock()
	if r.down {
		r.mu.Unlock()
		return 0, 0, ErrShutdown
	}
	es := make([]*entry, 0, r.ll.Len())
	for el := r.ll.Back(); el != nil; el = el.Prev() {
		// Tail-first: oldest entries serialize first, so a capped restore
		// replays in roughly the original arrival order.
		es = append(es, el.Value.(*entry))
	}
	r.mu.Unlock()
	for _, e := range es {
		e.mu.Lock()
		if e.closed || len(e.log) == 0 {
			skipped++
			e.mu.Unlock()
			continue
		}
		ferr := fn(EntityLog{Key: e.key, RulesWire: e.rulesWire, Mode: e.mode, Deltas: e.log})
		e.mu.Unlock()
		if ferr != nil {
			return written, skipped, ferr
		}
		written++
	}
	return written, skipped, nil
}

// Get returns the entity's current state without applying any delta. The
// boolean reports presence. A busy rows entity answers ErrBusy; a busy
// answers entity is waited on, so the state returned includes the round
// that was in flight.
func (r *Registry) Get(key string) (Result, bool, error) {
	for {
		e, victims, err := r.checkout(key, nil, true)
		closeAll(victims)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				return Result{}, false, nil
			}
			return Result{}, false, err
		}
		if e.closed {
			e.mu.Unlock()
			continue
		}
		res := Result{Key: key}
		e.fill(&res)
		e.mu.Unlock()
		return res, true, nil
	}
}

// Spec returns an independent copy of a rows entity's accumulated
// specification — the input a from-scratch resolution would see. The
// differential layer resolves it and byte-compares against Get.
func (r *Registry) Spec(key string) (*conflictres.Spec, bool, error) {
	for {
		e, victims, err := r.checkout(key, nil, false)
		closeAll(victims)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				return nil, false, nil
			}
			return nil, false, err
		}
		if e.closed {
			e.mu.Unlock()
			continue
		}
		f, ok := e.f.(rowsFacade)
		e.mu.Unlock()
		if !ok {
			return nil, true, ErrMismatch
		}
		return f.ls.Spec(), true, nil
	}
}

// Schema returns the schema of the entity's rule set without touching the
// entity lock, so an adapter can validate a delta before sending it; it
// reports whether the key is held.
func (r *Registry) Schema(key string) (*conflictres.Schema, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.m[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*entry).rules.Schema(), true
}

// Remove deletes the entity, blocking until any in-flight operation on it
// drains, and returns its pipeline to the pool. It reports whether the
// entity was present and not already expired.
func (r *Registry) Remove(key string) bool {
	r.mu.Lock()
	el, ok := r.m[key]
	if !ok {
		r.mu.Unlock()
		return false
	}
	e := el.Value.(*entry)
	expired := r.ttl > 0 && time.Since(e.lastUse) > r.ttl
	r.ll.Remove(el)
	delete(r.m, key)
	if expired {
		r.expired.Add(1)
	}
	r.mu.Unlock()
	closeAll([]*entry{e})
	return !expired
}

// checkout resolves key to a locked entry. Under the registry lock it
// handles TTL expiry, LRU refresh, capacity eviction and, when fresh is
// non-nil and key is absent, insertion of fresh as a placeholder; the
// locked entry plus any eviction victims are returned for the caller to use
// and close outside the lock. A created placeholder is returned already
// locked, so concurrent requests see ErrBusy while the caller builds its
// facade. With wait set, a busy entry whose kind readsWait is waited on
// instead of answering ErrBusy.
func (r *Registry) checkout(key string, fresh *entry, wait bool) (e *entry, victims []*entry, err error) {
	r.mu.Lock()
	if r.down {
		r.mu.Unlock()
		return nil, nil, ErrShutdown
	}
	if el, ok := r.m[key]; ok {
		e := el.Value.(*entry)
		if r.ttl > 0 && time.Since(e.lastUse) > r.ttl {
			r.ll.Remove(el)
			delete(r.m, key)
			r.expired.Add(1)
			victims = append(victims, e)
		} else {
			e.lastUse = time.Now()
			r.ll.MoveToFront(el)
			if fresh != nil && e.rulesHash != fresh.rulesHash {
				r.mu.Unlock()
				return nil, victims, ErrRulesChanged
			}
			if !e.mu.TryLock() {
				r.mu.Unlock()
				if !wait || !e.kind.readsWait() {
					return nil, victims, ErrBusy
				}
				e.mu.Lock()
				return e, victims, nil
			}
			r.mu.Unlock()
			return e, victims, nil
		}
	}
	if fresh == nil {
		r.mu.Unlock()
		return nil, victims, ErrNotFound
	}
	e = fresh
	e.lastUse = time.Now()
	e.mu.Lock()
	r.m[key] = r.ll.PushFront(e)
	r.created.Add(1)
	for r.cap > 0 && r.ll.Len() > r.cap {
		el := r.ll.Back()
		old := el.Value.(*entry)
		r.ll.Remove(el)
		delete(r.m, old.key)
		r.evicted.Add(1)
		victims = append(victims, old)
	}
	r.mu.Unlock()
	return e, victims, nil
}

// Discard takes back an entity whose creator gave up on it (its request
// timed out before the build finished, so nobody learned the key): it is
// removed and closed, and its creation is no longer counted.
func (r *Registry) Discard(key string) {
	r.mu.Lock()
	el, ok := r.m[key]
	if !ok {
		r.mu.Unlock()
		return
	}
	e := el.Value.(*entry)
	r.ll.Remove(el)
	delete(r.m, key)
	r.created.Add(-1)
	r.mu.Unlock()
	closeAll([]*entry{e})
}

// drop removes a placeholder whose facade failed to build.
func (r *Registry) drop(key string, e *entry) {
	r.mu.Lock()
	if el, ok := r.m[key]; ok && el.Value.(*entry) == e {
		r.ll.Remove(el)
		delete(r.m, key)
	}
	r.created.Add(-1)
	r.mu.Unlock()
}

// closeAll closes entries collected under the registry lock. Each close
// takes the entry mutex, so it blocks until any in-flight upsert drains,
// then returns the pipeline to its pool exactly once.
func closeAll(es []*entry) {
	for _, e := range es {
		e.mu.Lock()
		if !e.closed {
			e.closed = true
			if e.f != nil {
				e.f.close()
			}
		}
		e.mu.Unlock()
	}
}

// Sweep closes every entry past its TTL (called by the server's janitor).
// It walks from the LRU tail, so it stops at the first still-live entry.
func (r *Registry) Sweep() {
	if r.ttl <= 0 {
		return
	}
	var victims []*entry
	r.mu.Lock()
	now := time.Now()
	for el := r.ll.Back(); el != nil; {
		e := el.Value.(*entry)
		if now.Sub(e.lastUse) <= r.ttl {
			break // everything further front is more recently used
		}
		prev := el.Prev()
		r.ll.Remove(el)
		delete(r.m, e.key)
		r.expired.Add(1)
		victims = append(victims, e)
		el = prev
	}
	r.mu.Unlock()
	closeAll(victims)
}

// Live returns the number of entities currently held.
func (r *Registry) Live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ll.Len()
}

// CountersSnapshot reports the registry's cumulative counters.
func (r *Registry) CountersSnapshot() Counters {
	return Counters{
		Created:  r.created.Load(),
		Expired:  r.expired.Load(),
		Evicted:  r.evicted.Load(),
		Extends:  r.extends.Load(),
		Rebuilds: r.rebuilds.Load(),
	}
}

// Close shuts the registry down: every entity is closed (blocking on
// in-flight operations) and later calls fail with ErrShutdown. Idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.down {
		r.mu.Unlock()
		return
	}
	r.down = true
	victims := make([]*entry, 0, r.ll.Len())
	for el := r.ll.Front(); el != nil; el = el.Next() {
		victims = append(victims, el.Value.(*entry))
	}
	r.ll.Init()
	r.m = make(map[string]*list.Element)
	r.mu.Unlock()
	closeAll(victims)
}

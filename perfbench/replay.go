package main

import (
	"time"

	"conflictres"
	"conflictres/internal/core"
	"conflictres/internal/encode"
	"conflictres/internal/live"
	"conflictres/internal/model"
	"conflictres/internal/relation"
	"conflictres/internal/sat"
)

// The replays re-run, in this process and on one goroutine, the engine
// calls the fleet made for the traced window's requests, on the same
// decoded inputs, with one span around each call into a layer. Each replay
// mirrors the server path it stands for: pooled pipelines for batch
// entities, unpooled sessions for interactive conversations, and per-entity
// sessions behind the live registry for upserts.

// noLit names no allocated order atom: Session.Implies on it attaches the
// pending clause delta and returns without a solve, which isolates the
// clause-append step of an incremental update.
var noLit = encode.OrderLit{A1: -1, A2: -2}

// engineRound records one deduction round on a loaded session: the root
// solve, the Fig. 5 deduction (exact: the canonical propagation fixpoint,
// as the live path computes it; otherwise the solver's trail), true values,
// trust fill and, when suggest is set and attributes remain, a suggestion.
func engineRound(t *tracer, sess *core.Session, exact, suggest bool, sch *relation.Schema) {
	var valid bool
	t.timeIt("sat.solve", func() { valid, _ = sess.IsValid() })
	if !valid {
		return
	}
	var od *core.OrderSet
	t.timeIt("core.deduce", func() {
		if exact {
			od, _ = sess.DeduceOrderExact()
		} else {
			od, _ = sess.DeduceOrder()
		}
	})
	var resolved map[relation.Attr]relation.Value
	t.timeIt("core.truevalues", func() { resolved = core.TrueValues(sess.Encoding(), od) })
	t.timeIt("core.trustfill", func() { core.TrustFill(sess.Encoding(), od, resolved) })
	if suggest && len(resolved) < sch.Len() {
		t.timeIt("core.suggest", func() { sess.Suggest(od, resolved) })
	}
}

// load builds a fresh session over enc, recording the clause load.
func load(t *tracer, enc *encode.Encoding) *core.Session {
	var sess *core.Session
	t.timeIt("sat.load", func() { sess = core.NewSessionFromEncoding(enc, encode.Options{}) })
	return sess
}

// extend applies one monotone-or-not delta the way core.Session does:
// append to the encoding and attach the clause delta, or rebuild with
// build. A session keeps its solver across rebuilds, so the timed reload
// is a reset of solver, the session's retained one, and a load into it;
// the session the later rounds run on is then made untimed.
func extend(t *tracer, sess *core.Session, apply func(*encode.Encoding) bool, build func(*model.Spec) *encode.Encoding, solver *sat.Solver) *core.Session {
	enc := sess.Encoding()
	var ok bool
	t.timeIt("encode.extend", func() { ok = apply(enc) })
	if ok {
		t.timeIt("sat.append", func() { sess.Implies(noLit) })
		return sess
	}
	var rebuilt *encode.Encoding
	t.timeIt("encode.build", func() { rebuilt = build(enc.Spec) })
	t.timeIt("sat.load", func() {
		solver.Reset()
		rebuilt.CNF().LoadInto(solver)
	})
	return load(&tracer{}, rebuilt)
}

// buildStandalone compiles without a skeleton, as unpooled sessions do.
func buildStandalone(m *model.Spec) *encode.Encoding { return encode.Build(m, encode.Options{}) }

func compileTraced(t *tracer, rw rulesWire) *conflictres.RuleSet {
	var rs *conflictres.RuleSet
	var err error
	t.timeIt("conflictres.compile", func() { rs, err = rw.compile() })
	if err != nil {
		panic(err) // the same rules compiled at generation
	}
	return rs
}

func (w *bulk) replay(o *outcome, t *tracer, budget time.Duration) int {
	rs := compileTraced(t, w.rules)
	var skel *encode.Skeleton
	solver := sat.New()
	start := time.Now()
	n := 0
	for _, r := range o.records.([]*bulkResult) {
		for _, e := range r.job.entities {
			if time.Since(start) > budget {
				return n
			}
			var spec *conflictres.Spec
			var err error
			t.timeIt("conflictres.bind", func() { spec, err = bindRows(rs, e.rows, e.sources) })
			if err != nil {
				continue // the fleet rejected it too, and verification counted it
			}
			m := spec.Model()
			if skel == nil {
				skel = encode.NewSkeleton(m.Sigma, m.Gamma, encode.Options{})
			}
			var enc *encode.Encoding
			t.timeIt("encode.build", func() { enc = skel.Build(m) })
			var loaded bool
			t.timeIt("sat.load", func() {
				solver.Reset()
				loaded = enc.CNF().LoadInto(solver)
			})
			n++
			if !loaded {
				continue
			}
			// Deduce from the fixpoint before any search, as a pooled
			// session reads its pre-search trail snapshot.
			var od *core.OrderSet
			t.timeIt("core.deduce", func() { od, _ = core.DeduceOrderWith(enc, solver) })
			var valid bool
			t.timeIt("sat.solve", func() { valid, _ = core.IsValidWith(solver) })
			if !valid {
				continue
			}
			var resolved map[relation.Attr]relation.Value
			t.timeIt("core.truevalues", func() { resolved = core.TrueValues(enc, od) })
			t.timeIt("core.trustfill", func() { core.TrustFill(enc, od, resolved) })
		}
	}
	return n
}

func (w *interactive) replay(o *outcome, t *tracer, budget time.Duration) int {
	rs := compileTraced(t, w.rules)
	sch := rs.Schema()
	start := time.Now()
	n := 0
	for _, rec := range o.records.([]*convoRecord) {
		if time.Since(start) > budget {
			break
		}
		var spec *conflictres.Spec
		var err error
		t.timeIt("conflictres.bind", func() { spec, err = bindRows(rs, rec.c.rows, nil) })
		if err != nil {
			continue // the fleet rejected it too, and verification counted it
		}
		var enc *encode.Encoding
		t.timeIt("encode.build", func() { enc = encode.Build(spec.Model(), encode.Options{}) })
		// The session's solver, retained across its rebuilds, starts out
		// holding the first formula; so does the one the replay reloads.
		solver := sat.New()
		enc.CNF().LoadInto(solver)
		sess := load(t, enc)
		engineRound(t, sess, false, true, sch)
		for _, ans := range rec.answers {
			conv := make(map[relation.Attr]relation.Value, len(ans))
			for name, v := range ans {
				conv[sch.MustAttr(name)] = v
			}
			sess = extend(t, sess, func(e *encode.Encoding) bool { return e.ExtendAnswers(conv) }, buildStandalone, solver)
			engineRound(t, sess, false, true, sch)
		}
		n++
	}
	return n
}

func (w *cdc) replay(o *outcome, t *tracer, budget time.Duration) int {
	rs := compileTraced(t, w.rules)
	sch := rs.Schema()
	reg := live.NewRegistry(0, 0)
	defer reg.Close()
	const rulesHash = "perfbench"
	// Set-up, untraced: every key with its base rows, in the registry and
	// in a shadow session that replays the engine calls of each upsert.
	// Like a live entity's pooled pipeline, each shadow rebuilds through
	// its own skeleton, reusing the retained encoding's storage, and
	// reloads into its own solver, reset rather than reallocated.
	shadow := make([]*core.Session, len(w.keys))
	skels := make([]*encode.Skeleton, len(w.keys))
	solvers := make([]*sat.Solver, len(w.keys))
	quiet := &tracer{}
	for i, k := range w.keys {
		if _, err := reg.Upsert(k.name, rs, rulesHash, live.Op{Rows: k.base}); err != nil {
			panic(err) // the fleet accepted the same rows
		}
		spec, err := bindRows(rs, k.base, nil)
		if err != nil {
			panic(err)
		}
		m := spec.Model()
		skels[i] = encode.NewSkeleton(m.Sigma, m.Gamma, encode.Options{})
		enc := skels[i].Build(m)
		// The live entity's solver holds its base formula before its first
		// rebuild; so does the shadow's.
		solvers[i] = sat.New()
		enc.CNF().LoadInto(solvers[i])
		shadow[i] = load(quiet, enc)
		engineRound(quiet, shadow[i], true, false, sch)
	}
	start := time.Now()
	n := 0
	for _, op := range w.ops[:o.records.(int)] {
		if time.Since(start) > budget {
			break
		}
		k := w.keys[op.key]
		if op.read {
			// Errors were the fleet's to report; verification counted them.
			t.timeIt("live.get", func() { _, _, _ = reg.Get(k.name) })
			continue
		}
		rows := []relation.Tuple{op.row}
		t.timeIt("live.call", func() { _, _ = reg.Upsert(k.name, rs, rulesHash, live.Op{Rows: rows}) })
		// An empty upsert on the same key takes every registry step — the
		// entry checkout, the row-log append, the state copy — and no
		// engine call: the registry's own time, measured directly.
		t.timeIt("live.upsert", func() { _, _ = reg.Upsert(k.name, rs, rulesHash, live.Op{}) })
		delta := []relation.Tuple{op.row.Clone()}
		shadow[op.key] = extend(t, shadow[op.key], func(e *encode.Encoding) bool { return e.ExtendRows(delta, nil) }, skels[op.key].Build, solvers[op.key])
		engineRound(t, shadow[op.key], true, false, sch)
		n++
	}
	return n
}

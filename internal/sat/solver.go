package sat

import (
	"sort"
)

// clauseRef indexes a clause in the solver's arena; noClause means "none".
type clauseRef int32

const noClause clauseRef = -1

// clause is a disjunction of literals. lits[0] and lits[1] are the watched
// positions (for clauses of length ≥ 2). Clauses live in the solver's arena
// and are addressed by clauseRef, never by pointer across mutations.
type clause struct {
	lits   []Lit
	act    float64
	learnt bool
}

// solverBlockLits is the chunk size of the problem-clause literal arena.
const solverBlockLits = 1 << 14

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
// A Solver is not safe for concurrent use.
//
// Clause storage is arena-backed: clause headers live in one growable slice
// indexed by clauseRef, problem-clause literals in chunked blocks, and the
// watch lists are flat []clauseRef per literal. Reset rewinds everything for
// reuse, so one solver instance can serve thousands of formulas (a pooled
// resolve pipeline resolving a dataset entity-by-entity) without
// reallocating trail, watch or activity storage.
type Solver struct {
	arena   []clause
	clauses []clauseRef
	learnts []clauseRef
	watches [][]clauseRef // indexed by Lit; clauses in which Lit is watched

	litBlocks [][]Lit // literal arena for problem clauses
	litCur    int

	assigns  []lbool // per var
	polarity []bool  // saved phase: true = last assigned false
	activity []float64
	varInc   float64
	claInc   float64
	order    *varHeap

	trail    []Lit
	trailLim []int
	reason   []clauseRef
	level    []int
	qhead    int

	seen     []bool
	addBuf   []Lit // AddClause scratch
	ok       bool  // false once a top-level contradiction is derived
	model    []bool
	haveModl bool
	// rootLearnt is set once a learnt clause has fired at level 0: from
	// then on the level-0 trail may hold more than the unit-propagation
	// fixpoint of the problem clauses (see Fixpoint). Reset clears it.
	rootLearnt bool

	// Order groups (group.go): each pair variable's occurrences, linked
	// from occHead; triples counts the transitivity clauses they stand for.
	// Group consequences above level 0 borrow reason slots, which
	// cancelUntil hands back to freeSlots.
	groups    []group
	gmat      []Lit
	occs      []groupOcc
	occHead   []int32
	triples   int
	usedSlots []reasonSlot
	freeSlots []clauseRef

	// Stats counts solver work; useful for benchmarks and tuning. The
	// counters are cumulative across Reset — they describe the solver's
	// whole lifetime, so pooled reuse never loses work accounting. Callers
	// that want per-formula numbers subtract a snapshot taken at load time.
	Stats Stats

	// MaxConflicts bounds the total conflicts per Solve call; 0 means
	// unbounded. When exceeded, Solve returns StatusUnknown.
	MaxConflicts int64
}

// Stats aggregates solver counters across a Solver's lifetime.
type Stats struct {
	Conflicts    int64
	Decisions    int64
	Propagations int64
	Restarts     int64
	Learnt       int64
	// Solves counts Solve calls; incremental callers (resolution sessions)
	// read it to report how many queries one solver instance amortized.
	Solves int64
}

// New creates an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, claInc: 1, ok: true}
	s.order = newVarHeap(&s.activity)
	return s
}

// Reset returns the solver to the empty state of New while keeping every
// allocation — clause arena, literal blocks, watch lists, trail, activity
// and heap storage — for reuse by the next formula. MaxConflicts is zeroed
// (it is per-formula configuration); Stats accumulates across resets so
// pooled reuse keeps lifetime work accounting without snapshot workarounds.
func (s *Solver) Reset() {
	s.arena = s.arena[:0]
	s.clauses = s.clauses[:0]
	s.learnts = s.learnts[:0]
	for i := range s.litBlocks {
		s.litBlocks[i] = s.litBlocks[i][:0]
	}
	s.litCur = 0
	// Per-variable storage shrinks to zero length; NewVar re-initializes
	// entries as it grows back into the retained capacity.
	s.assigns = s.assigns[:0]
	s.polarity = s.polarity[:0]
	s.activity = s.activity[:0]
	s.reason = s.reason[:0]
	s.level = s.level[:0]
	s.seen = s.seen[:0]
	s.occHead = s.occHead[:0]
	s.groups = s.groups[:0]
	s.gmat = s.gmat[:0]
	s.occs = s.occs[:0]
	s.triples = 0
	s.usedSlots = s.usedSlots[:0]
	s.freeSlots = s.freeSlots[:0]
	s.watches = s.watches[:0]
	s.trail = s.trail[:0]
	s.trailLim = s.trailLim[:0]
	s.qhead = 0
	s.order.reset()
	s.varInc, s.claInc = 1, 1
	s.ok = true
	s.haveModl = false
	s.rootLearnt = false
	s.MaxConflicts = 0
}

// NewVar allocates a fresh variable and returns it.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assigns))
	s.assigns = append(s.assigns, lUndef)
	s.polarity = append(s.polarity, true)
	s.activity = append(s.activity, 0)
	s.reason = append(s.reason, noClause)
	s.level = append(s.level, 0)
	s.seen = append(s.seen, false)
	s.occHead = append(s.occHead, -1)
	// Watch lists retained across Reset keep their capacity: grow by
	// reslicing (which preserves the stored inner slices) and truncate the
	// reused entries, instead of appending nil over them.
	if n := len(s.watches) + 2; n <= cap(s.watches) {
		s.watches = s.watches[:n]
		s.watches[n-2] = s.watches[n-2][:0]
		s.watches[n-1] = s.watches[n-1][:0]
	} else {
		s.watches = append(s.watches, nil, nil)
	}
	s.order.insert(v)
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NumClauses returns the number of problem clauses currently stored.
func (s *Solver) NumClauses() int { return len(s.clauses) }

func (s *Solver) value(l Lit) lbool {
	v := s.assigns[l.Var()]
	if l.Neg() {
		return -v
	}
	return v
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// allocLits returns an arena slice holding a copy of lits (problem clauses
// only; learnt clauses own their literals so reduceDB can release them).
func (s *Solver) allocLits(lits []Lit) []Lit {
	n := len(lits)
	for s.litCur < len(s.litBlocks) {
		b := s.litBlocks[s.litCur]
		if cap(b)-len(b) >= n {
			cl := append(b[len(b):len(b):cap(b)], lits...)
			s.litBlocks[s.litCur] = b[:len(b)+n]
			return cl[:n:n]
		}
		s.litCur++
	}
	size := solverBlockLits
	if n > size {
		size = n
	}
	block := make([]Lit, 0, size)
	cl := append(block, lits...)
	s.litBlocks = append(s.litBlocks, cl)
	s.litCur = len(s.litBlocks) - 1
	return cl[:n:n]
}

// newClause stores a clause in the arena and returns its reference.
func (s *Solver) newClause(lits []Lit, learnt bool) clauseRef {
	var stored []Lit
	if learnt {
		stored = append([]Lit(nil), lits...)
	} else {
		stored = s.allocLits(lits)
	}
	s.arena = append(s.arena, clause{lits: stored, learnt: learnt})
	return clauseRef(len(s.arena) - 1)
}

// AddClause adds a clause. It returns false if the solver is already in an
// unsatisfiable state (including becoming unsatisfiable because of this
// clause). Duplicate literals are removed; tautologies are dropped; literals
// already false at level 0 are stripped. The input slice is not retained or
// mutated.
//
// AddClause is safe after Solve: every Solve call backtracks to the root
// level before returning, so clauses (and fresh variables) can be attached
// incrementally while all learned clauses — consequences of the formula so
// far, hence of any extension — are preserved. The cached model of the last
// Solve is invalidated, since the new clause may falsify it.
func (s *Solver) AddClause(lits ...Lit) bool {
	s.haveModl = false
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause above decision level 0")
	}
	// Sort/dedup; detect tautology and strip level-0-false literals. The
	// scratch copy keeps the caller's slice intact; insertion sort beats
	// sort.Slice on the short clauses that dominate here.
	ls := append(s.addBuf[:0], lits...)
	s.addBuf = ls
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j] < ls[j-1]; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
	out := ls[:0]
	var prev Lit = -1
	for _, l := range ls {
		if l == prev {
			continue
		}
		if prev >= 0 && l == prev.Not() {
			return true // tautology: x ∨ ¬x
		}
		switch s.value(l) {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			prev = l
			continue // drop falsified literal
		}
		out = append(out, l)
		prev = l
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], noClause)
		s.ok = s.propagate() == noClause
		return s.ok
	}
	cr := s.newClause(out, false)
	s.attach(cr)
	s.clauses = append(s.clauses, cr)
	return true
}

func (s *Solver) attach(cr clauseRef) {
	c := &s.arena[cr]
	s.watches[c.lits[0]] = append(s.watches[c.lits[0]], cr)
	s.watches[c.lits[1]] = append(s.watches[c.lits[1]], cr)
}

func (s *Solver) uncheckedEnqueue(l Lit, from clauseRef) {
	v := l.Var()
	if l.Neg() {
		s.assigns[v] = lFalse
	} else {
		s.assigns[v] = lTrue
	}
	s.reason[v] = from
	s.level[v] = s.decisionLevel()
	s.trail = append(s.trail, l)
	if from != noClause && s.level[v] == 0 && s.arena[from].learnt {
		s.rootLearnt = true
	}
}

// propagate performs unit propagation over the clauses and the order groups;
// it returns the conflicting clause or noClause.
func (s *Solver) propagate() clauseRef {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is now true
		s.qhead++
		s.Stats.Propagations++
		falseLit := p.Not()
		ws := s.watches[falseLit]
		kept := ws[:0]
	clauses:
		for ci := 0; ci < len(ws); ci++ {
			cr := ws[ci]
			c := &s.arena[cr]
			// Normalize: watched falseLit at position 1.
			if c.lits[0] == falseLit {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			// If first watch is true, clause is satisfied.
			if s.value(c.lits[0]) == lTrue {
				kept = append(kept, cr)
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1]] = append(s.watches[c.lits[1]], cr)
					continue clauses
				}
			}
			// Clause is unit or conflicting.
			kept = append(kept, cr)
			if s.value(c.lits[0]) == lFalse {
				// Conflict: keep remaining watchers and bail. A learnt
				// clause falsified at level 0 makes the solver inconsistent
				// where the problem clauses alone may propagate cleanly.
				if c.learnt && s.decisionLevel() == 0 {
					s.rootLearnt = true
				}
				kept = append(kept, ws[ci+1:]...)
				s.watches[falseLit] = kept
				s.qhead = len(s.trail)
				return cr
			}
			s.uncheckedEnqueue(c.lits[0], cr)
		}
		s.watches[falseLit] = kept
		if cr := s.propagateGroups(p); cr != noClause {
			s.qhead = len(s.trail)
			return cr
		}
	}
	return noClause
}

// analyze performs first-UIP conflict analysis. It returns the learnt clause
// (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl clauseRef) ([]Lit, int) {
	learnt := []Lit{0} // placeholder for asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		// Bump and mark literals of the current reason clause.
		start := 0
		if p != -1 {
			start = 1 // skip the asserting literal position in reasons
		}
		c := &s.arena[confl]
		if c.learnt {
			s.bumpClause(c)
		}
		for i := start; i < len(c.lits); i++ {
			q := c.lits[i]
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal to expand from the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		s.seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Not()
			break
		}
		confl = s.reason[v]
	}

	// Simple clause minimization: drop literals whose reason is subsumed.
	preMin := append([]Lit(nil), learnt...)
	learnt = s.minimize(learnt)

	// Compute backtrack level: max level among learnt[1:].
	bt := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = s.level[learnt[1].Var()]
	}
	for _, l := range preMin {
		s.seen[l.Var()] = false
	}
	return learnt, bt
}

// minimize removes learnt-clause literals that are implied by the remaining
// ones via their reason clauses (local minimization, non-recursive).
func (s *Solver) minimize(learnt []Lit) []Lit {
	for _, l := range learnt {
		s.seen[l.Var()] = true
	}
	out := learnt[:1]
	for _, l := range learnt[1:] {
		r := s.reason[l.Var()]
		if r == noClause {
			out = append(out, l)
			continue
		}
		redundant := true
		for _, q := range s.arena[r].lits {
			if q.Var() == l.Var() {
				continue
			}
			if !s.seen[q.Var()] && s.level[q.Var()] != 0 {
				redundant = false
				break
			}
		}
		if !redundant {
			out = append(out, l)
		}
	}
	return out
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	s.releaseSlots(s.trailLim[lvl])
	for i := len(s.trail) - 1; i >= s.trailLim[lvl]; i-- {
		l := s.trail[i]
		v := l.Var()
		s.assigns[v] = lUndef
		s.polarity[v] = l.Neg()
		s.reason[v] = noClause
		s.order.insert(v)
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.decreased(v)
}

func (s *Solver) bumpClause(c *clause) {
	c.act += s.claInc
	if c.act > 1e20 {
		for _, lc := range s.learnts {
			s.arena[lc].act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayActivities() {
	s.varInc /= 0.95
	s.claInc /= 0.999
}

func (s *Solver) pickBranchVar() Var {
	for !s.order.empty() {
		v := s.order.removeMax()
		if s.assigns[v] == lUndef {
			return v
		}
	}
	return -1
}

// reduceDB halves the learnt-clause database, keeping the most active.
func (s *Solver) reduceDB() {
	sort.Slice(s.learnts, func(i, j int) bool { return s.arena[s.learnts[i]].act > s.arena[s.learnts[j]].act })
	keep := s.learnts[:0]
	locked := func(cr clauseRef) bool {
		v := s.arena[cr].lits[0].Var()
		return s.assigns[v] != lUndef && s.reason[v] == cr
	}
	for i, cr := range s.learnts {
		if i < len(s.learnts)/2 || len(s.arena[cr].lits) == 2 || locked(cr) {
			keep = append(keep, cr)
		} else {
			s.detach(cr)
			// The arena slot leaks until Reset, but the literals (the bulk)
			// are released for the garbage collector now.
			s.arena[cr].lits = nil
		}
	}
	s.learnts = keep
}

func (s *Solver) detach(cr clauseRef) {
	lits := s.arena[cr].lits
	for _, w := range []Lit{lits[0], lits[1]} {
		ws := s.watches[w]
		for i, x := range ws {
			if x == cr {
				ws[i] = ws[len(ws)-1]
				s.watches[w] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// luby returns the i-th element (1-based) of the Luby restart sequence.
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (int64(1)<<k)-1 {
			return int64(1) << (k - 1)
		}
		if i < (int64(1)<<k)-1 {
			return luby(i - (int64(1) << (k - 1)) + 1)
		}
	}
}

// Solve determines satisfiability under the given assumption literals.
// With no assumptions it decides the formula itself. After StatusSat,
// Model reports the satisfying assignment.
func (s *Solver) Solve(assumptions ...Lit) Status {
	s.haveModl = false
	s.Stats.Solves++
	if !s.ok {
		return StatusUnsat
	}
	defer s.cancelUntil(0)

	var restart int64 = 1
	var totalConflicts int64
	maxLearnts := int64(len(s.clauses)+s.triples)/3 + 100

	for {
		budget := 100 * luby(restart)
		restart++
		st, confl := s.search(assumptions, budget, &totalConflicts, &maxLearnts)
		switch st {
		case StatusSat:
			if cap(s.model) >= len(s.assigns) {
				s.model = s.model[:len(s.assigns)]
			} else {
				s.model = make([]bool, len(s.assigns))
			}
			for i, a := range s.assigns {
				s.model[i] = a == lTrue
			}
			s.haveModl = true
			return StatusSat
		case StatusUnsat:
			if confl {
				s.ok = false // contradiction independent of assumptions
			}
			return StatusUnsat
		}
		if s.MaxConflicts > 0 && totalConflicts >= s.MaxConflicts {
			return StatusUnknown
		}
		s.Stats.Restarts++
		s.cancelUntil(0)
	}
}

// search runs CDCL until a result, restart budget exhaustion, or the global
// conflict bound. The bool result reports whether UNSAT was derived at level
// 0 (i.e. independent of assumptions).
func (s *Solver) search(assumptions []Lit, budget int64, total *int64, maxLearnts *int64) (Status, bool) {
	var conflicts int64
	for {
		confl := s.propagate()
		if confl != noClause {
			s.Stats.Conflicts++
			conflicts++
			*total++
			if s.decisionLevel() == 0 {
				return StatusUnsat, true
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], noClause)
				s.rootLearnt = true
			} else {
				cr := s.newClause(learnt, true)
				s.attach(cr)
				s.learnts = append(s.learnts, cr)
				s.bumpClause(&s.arena[cr])
				s.Stats.Learnt++
				s.uncheckedEnqueue(learnt[0], cr)
			}
			s.decayActivities()
			if int64(len(s.learnts)) > *maxLearnts {
				*maxLearnts = *maxLearnts * 11 / 10
				s.reduceDB()
			}
			continue
		}
		if conflicts >= budget || (s.MaxConflicts > 0 && *total >= s.MaxConflicts) {
			return StatusUnknown, false
		}
		// Decision: assumptions first, then VSIDS.
		var next Lit = -1
		for s.decisionLevel() < len(assumptions) {
			p := assumptions[s.decisionLevel()]
			switch s.value(p) {
			case lTrue:
				s.trailLim = append(s.trailLim, len(s.trail)) // dummy level
				continue
			case lFalse:
				return StatusUnsat, false // conflicts with assumptions
			default:
				next = p
			}
			break
		}
		if next == -1 {
			v := s.pickBranchVar()
			if v == -1 {
				return StatusSat, false
			}
			s.Stats.Decisions++
			next = MkLit(v, s.polarity[v])
		}
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, noClause)
	}
}

// Model returns the satisfying assignment found by the last successful
// Solve; index i is the value of variable i. It returns nil if the last
// Solve did not succeed.
func (s *Solver) Model() []bool {
	if !s.haveModl {
		return nil
	}
	return append([]bool(nil), s.model...)
}

// Okay reports whether the solver is still consistent at the top level
// (false after a contradiction was added or derived).
func (s *Solver) Okay() bool { return s.ok }

// Fixpoint returns the literals assigned at decision level 0. While ok is
// true this is exactly the unit-propagation fixpoint of the problem clauses
// added so far — the one-literal clauses the algorithm of Fig. 5 collects
// and reduces by, i.e. the engine behind the paper's DeduceOrder. Every
// level-0 literal was then derived from problem clauses, AddClause stripped
// and dropped clauses using only those literals, and the UP closure is a
// unique least fixpoint, so clause order does not matter.
//
// ok turns false once a learnt clause has fired at level 0 (a learnt unit,
// a level-0 literal whose reason is learnt, or a learnt clause falsified at
// level 0): the trail may then also hold consequences found by search.
// Reset and a reload restore it.
func (s *Solver) Fixpoint() (lits []Lit, ok bool) {
	if s.decisionLevel() != 0 {
		panic("sat: Fixpoint above decision level 0")
	}
	return append([]Lit(nil), s.trail...), !s.rootLearnt
}

// Value reports the top-level (decision level 0) forced value of v after a
// Solve call: +1 true, -1 false, 0 unassigned at the top level.
func (s *Solver) Value(v Var) int { return int(s.assigns[v]) }

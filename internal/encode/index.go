package encode

import (
	"slices"

	"conflictres/internal/constraint"
	"conflictres/internal/relation"
)

// constKey is one (attribute, canonical constant) pair of a rule set.
type constKey struct {
	attr relation.Attr
	val  valKey
}

// ruleIndex maps the constants of a rule set to the members they can fire,
// so that Build visits only the members an entity's active values make
// live (DESIGN.md, "Rule-set indexes").
//
// A currency constraint is indexed by the (attribute, constant) pair of
// each t1[A] = c or t2[A] = c conjunct in its body. Such a conjunct only
// holds for a tuple whose A-value equals c, so a constraint with a
// constant outside adom(A) has no non-vacuous instance and is skipped; a
// constraint without such conjuncts is always live, and one comparing with
// a null constant is never live (missing values never fire constraints).
//
// A constant CFD is indexed by its X constants. Its liveness is a closure:
// it is live when each X constant is in adom(X) or is the head VB of a live
// CFD with B = X. Only such a head can force every active X value below a
// constant outside adom(X); any other CFD has an ωX that no clause can
// make true, and dropping it, its constants and their axioms leaves every
// other atom's consequences unchanged (DESIGN.md).
//
// Member lists are kept in compressed rows: the Σ members of key k are
// sigmaOf[sigmaAt[k]:sigmaAt[k+1]], in ascending order, and likewise for
// Γ. Every int32 table is carved from one allocation, since a standalone
// Build compiles the index afresh.
type ruleIndex struct {
	keys     map[constKey]int32
	attrKeys []int32 // per attribute: how many keys it has

	sigmaAt, sigmaOf []int32
	sigmaNeed        []int32 // per Σ member: distinct keys it needs; -1 never live
	sigmaAlways      []int32 // Σ members without constant conjuncts, ascending

	gammaAt, gammaOf []int32
	gammaNeed        []int32 // per Γ member: |X|
	gammaHead        []int32 // per Γ member: the key of (B, VB), -1 if no CFD reads it

	refAttrs [][]relation.Attr // per Σ member: the attributes it reads or writes
}

// maxConjuncts bounds the per-member scratch that dedups a member's keys
// without allocating; longer bodies spill to the heap.
const maxConjuncts = 8

// newRuleIndex compiles the index of a rule set.
func newRuleIndex(sigma []constraint.Currency, gamma []constraint.CFD) *ruleIndex {
	nEq, nX, maxAttr := 0, 0, -1
	for _, c := range sigma {
		for _, p := range c.Body {
			if a, _, ok := eqConst(p); ok {
				nEq++
				maxAttr = max(maxAttr, int(a))
			}
		}
	}
	for _, cfd := range gamma {
		nX += len(cfd.X)
		for _, a := range cfd.X {
			maxAttr = max(maxAttr, int(a))
		}
	}
	nK := nEq + nX // bounds the key count
	ix := &ruleIndex{keys: make(map[constKey]int32, nK)}
	slab := make([]int32, 0, maxAttr+1+2*(nK+1)+nK+nEq+nX+2*len(sigma)+2*len(gamma))
	carve := func(n int) []int32 {
		s := slab[len(slab) : len(slab)+n : len(slab)+n]
		slab = slab[:len(slab)+n]
		return s
	}
	ix.attrKeys = carve(maxAttr + 1)
	ix.sigmaAt = carve(nK + 1) // sized for the worst case, trimmed below
	ix.gammaAt = carve(nK + 1)
	count := carve(nK) // per key: its members; then the fill cursor
	ix.sigmaNeed = carve(len(sigma))
	ix.sigmaAlways = carve(len(sigma))[:0]
	ix.gammaNeed = carve(len(gamma))
	ix.gammaHead = carve(len(gamma))
	keyOf := func(a relation.Attr, v relation.Value) int32 {
		k := constKey{a, canonKey(v)}
		id, known := ix.keys[k]
		if !known {
			id = int32(len(ix.keys))
			ix.keys[k] = id
			ix.attrKeys[a]++
		}
		return id
	}

	// memberKeys lists the distinct keys of a member's constant conjuncts,
	// creating keys on first sight, or reports the member never live.
	var buf [maxConjuncts]int32
	memberKeys := func(c constraint.Currency) ([]int32, bool) {
		ids := buf[:0]
		for _, p := range c.Body {
			a, v, ok := eqConst(p)
			if !ok {
				continue
			}
			if v.IsNull() {
				return nil, false
			}
			if id := keyOf(a, v); !slices.Contains(ids, id) {
				ids = append(ids, id)
			}
		}
		return ids, true
	}
	for ci, c := range sigma {
		ids, ok := memberKeys(c)
		switch {
		case !ok:
			ix.sigmaNeed[ci] = -1
			continue
		case len(ids) == 0:
			ix.sigmaAlways = append(ix.sigmaAlways, int32(ci))
		}
		ix.sigmaNeed[ci] = int32(len(ids))
		for _, id := range ids {
			count[id]++
		}
	}
	for _, cfd := range gamma {
		for xi, a := range cfd.X {
			keyOf(a, cfd.PX[xi])
		}
	}
	nKeys := len(ix.keys)
	// rows turns per-key member counts into row offsets in at and fill
	// cursors in count.
	rows := func(at []int32) []int32 {
		at = at[:nKeys+1]
		for k := 0; k < nKeys; k++ {
			at[k+1] = at[k] + count[k]
			count[k] = at[k]
		}
		return at
	}
	ix.sigmaAt = rows(ix.sigmaAt)
	ix.sigmaOf = carve(int(ix.sigmaAt[nKeys]))
	for ci, c := range sigma {
		if ix.sigmaNeed[ci] <= 0 {
			continue
		}
		ids, _ := memberKeys(c)
		for _, id := range ids {
			ix.sigmaOf[count[id]] = int32(ci)
			count[id]++
		}
	}

	clear(count)
	for gi, cfd := range gamma {
		for xi, a := range cfd.X {
			count[ix.keys[constKey{a, canonKey(cfd.PX[xi])}]]++
		}
		ix.gammaNeed[gi] = int32(len(cfd.X))
		ix.gammaHead[gi] = -1
		if id, ok := ix.keys[constKey{cfd.B, canonKey(cfd.VB)}]; ok {
			ix.gammaHead[gi] = id
		}
	}
	ix.gammaAt = rows(ix.gammaAt)
	ix.gammaOf = carve(int(ix.gammaAt[nKeys]))
	for gi, cfd := range gamma {
		for xi, a := range cfd.X {
			id := ix.keys[constKey{a, canonKey(cfd.PX[xi])}]
			ix.gammaOf[count[id]] = int32(gi)
			count[id]++
		}
	}
	ix.refAttrs = refAttrsAll(sigma)
	return ix
}

// eqConst recognizes a body conjunct t[A] = c (or c = t[A]) and returns
// its attribute and constant. A NaN constant is not recognized: it
// compares equal to every number, so no single value stands for it.
func eqConst(p constraint.Pred) (relation.Attr, relation.Value, bool) {
	if p.Kind != constraint.PredCompare || p.Op != constraint.OpEq || p.L.Const == p.R.Const {
		return 0, relation.Value{}, false
	}
	attr, c := p.L, p.R
	if attr.Const {
		attr, c = c, attr
	}
	if canonKey(c.Literal).kind == kindNaN {
		return 0, relation.Value{}, false
	}
	return attr.Attr, c.Literal, true
}

// refAttrsAll lists, per currency constraint, the attributes it reads or
// writes in ascending order, all carved from one backing array.
func refAttrsAll(sigma []constraint.Currency) [][]relation.Attr {
	n := 0
	for _, c := range sigma {
		n += 1 + 2*len(c.Body)
	}
	slab := make([]relation.Attr, 0, n)
	out := make([][]relation.Attr, len(sigma))
	for ci, c := range sigma {
		start := len(slab)
		slab = append(slab, c.Target)
		for _, p := range c.Body {
			switch p.Kind {
			case constraint.PredCurrency:
				slab = append(slab, p.Attr)
			case constraint.PredCompare:
				if !p.L.Const {
					slab = append(slab, p.L.Attr)
				}
				if !p.R.Const {
					slab = append(slab, p.R.Attr)
				}
			}
		}
		own := slab[start:]
		slices.Sort(own)
		own = slices.Compact(own)
		slab = slab[:start+len(own)]
		out[ci] = own[:len(own):len(own)]
	}
	return out
}

// liveState is one encoding's view of the index: which keys its active
// values hold and which members they make live. It is reset per build and
// grown by incremental extension; its tables share one backing array.
type liveState struct {
	slab      []int32
	keyIn     []int32 // per key: 1 once the constant is in the active domain
	sigmaHits []int32 // per Σ member: its keys found so far
	sigmaLive []int32 // live Σ members, ascending between activations

	keySat    []int32 // per key: 1 once in the active domain or a live head
	gammaHits []int32 // per Γ member: its X keys satisfied so far
	gammaLive []int32 // live Γ members, ascending between activations
}

// reset sizes the state to ix and clears it, keeping storage; only the
// always-live members are live.
func (st *liveState) reset(ix *ruleIndex) {
	nK, nS, nG := len(ix.keys), len(ix.sigmaNeed), len(ix.gammaHead)
	counters := 2*nK + nS + nG
	n := counters + nS + nG
	if cap(st.slab) < n {
		st.slab = make([]int32, n)
	} else {
		st.slab = st.slab[:n]
		clear(st.slab[:counters])
	}
	tab := st.slab
	carve := func(n int) []int32 {
		s := tab[:n:n]
		tab = tab[n:]
		return s
	}
	st.keyIn, st.keySat = carve(nK), carve(nK)
	st.sigmaHits, st.gammaHits = carve(nS), carve(nG)
	st.sigmaLive = append(carve(nS)[:0], ix.sigmaAlways...)
	st.gammaLive = carve(nG)[:0]
}

// activate records value v joining adom(a): every key it satisfies is
// marked and the members completed by it join the live lists, unsorted
// (callers sort them once a batch of values is in). It reports whether any
// Σ member became live. A NaN value compares equal to every number, so it
// satisfies every key of its attribute.
func (st *liveState) activate(ix *ruleIndex, a relation.Attr, v relation.Value) bool {
	if int(a) >= len(ix.attrKeys) || ix.attrKeys[a] == 0 {
		return false
	}
	k := canonKey(v)
	if k.kind == kindNaN {
		grew := false
		for key, id := range ix.keys {
			if key.attr == a {
				grew = st.satisfy(ix, id) || grew
			}
		}
		return grew
	}
	id, ok := ix.keys[constKey{a, k}]
	return ok && st.satisfy(ix, id)
}

// satisfy marks key id as held by the active domain.
func (st *liveState) satisfy(ix *ruleIndex, id int32) bool {
	st.satisfyGamma(ix, id)
	if st.keyIn[id] != 0 {
		return false
	}
	st.keyIn[id] = 1
	grew := false
	for _, ci := range ix.sigmaOf[ix.sigmaAt[id]:ix.sigmaAt[id+1]] {
		st.sigmaHits[ci]++
		if st.sigmaHits[ci] == ix.sigmaNeed[ci] {
			st.sigmaLive = append(st.sigmaLive, ci)
			grew = true
		}
	}
	return grew
}

// satisfyGamma marks key id as available to CFD patterns and closes over
// the CFDs it completes: each joins the live list, and its head satisfies
// the CFDs that read it.
func (st *liveState) satisfyGamma(ix *ruleIndex, id int32) {
	if st.keySat[id] != 0 {
		return
	}
	st.keySat[id] = 1
	for _, gi := range ix.gammaOf[ix.gammaAt[id]:ix.gammaAt[id+1]] {
		st.gammaHits[gi]++
		if st.gammaHits[gi] == ix.gammaNeed[gi] {
			st.gammaLive = append(st.gammaLive, gi)
			if h := ix.gammaHead[gi]; h >= 0 {
				st.satisfyGamma(ix, h)
			}
		}
	}
}

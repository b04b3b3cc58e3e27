package sat

import (
	"math/bits"
	"slices"
)

// Group is an order group: a set of members and, for every ordered pair
// (i, j) of distinct members, a pair literal x_ij. The group stands for the
// transitivity clause (¬x_ij ∨ ¬x_jl ∨ x_il) of every ordered triple of
// distinct members, without storing any of them. Asymmetry is not part of a
// group; callers add it as binary clauses.
//
// Groups are append-only. Member m joins with its pair literals to every
// earlier member i, in the order lit(i,m), lit(m,i) for i = 0..m-1, so its
// literals sit at Lits[m(m-1) : m(m+1)] and a group of k members holds
// k(k-1) literals for k(k-1)(k-2) clauses.
type Group struct {
	Members int
	Lits    []Lit
}

// Pair returns lit(i,j), the literal of the ordered pair of members i ≠ j.
func (g *Group) Pair(i, j int) Lit { return groupLit(g.Lits, i, j) }

// groupLit returns lit(i,j) from a group's literal layout.
func groupLit(lits []Lit, i, j int) Lit {
	if i < j {
		return lits[j*(j-1)+2*i]
	}
	return lits[i*(i-1)+2*j+1]
}

// NewGroup appends an empty order group and returns its index.
func (c *CNF) NewGroup() int {
	c.Groups = append(c.Groups, Group{})
	return len(c.Groups) - 1
}

// Join adds a member to group g. pairs holds lit(i,m), lit(m,i) for every
// earlier member i, in join order. A group's literals live in the CNF's
// literal arena; when they outgrow their region they move to a region of
// at least twice the size, and the old one is reclaimed by Reset.
func (c *CNF) Join(g int, pairs ...Lit) {
	gr := &c.Groups[g]
	if len(pairs) != 2*gr.Members {
		panic("sat: Join needs two literals per earlier member")
	}
	for _, l := range pairs {
		if int(l.Var()) >= c.NVars {
			c.NVars = int(l.Var()) + 1
		}
	}
	if n := len(gr.Lits) + len(pairs); n > cap(gr.Lits) {
		n = max(n, 2*cap(gr.Lits), 8)
		region := c.alloc(n)[:0:n]
		c.blocks[c.cur] = c.blocks[c.cur][:len(c.blocks[c.cur])+n]
		gr.Lits = append(region, gr.Lits...)
	}
	gr.Lits = append(gr.Lits, pairs...)
	gr.Members++
}

// NumTriples returns the number of transitivity clauses the groups stand
// for.
func (c *CNF) NumTriples() int {
	n := 0
	for _, g := range c.Groups {
		k := g.Members
		n += k * (k - 1) * (k - 2)
	}
	return n
}

// eachTriple calls f with every transitivity clause of every group, as
// (¬x_ij, ¬x_jl, x_il) over distinct members i, j, l ascending, until f
// returns false. It reports whether it visited them all.
func (c *CNF) eachTriple(f func(a, b, d Lit) bool) bool {
	for _, g := range c.Groups {
		k := g.Members
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if j == i {
					continue
				}
				x := groupLit(g.Lits, i, j).Not()
				for l := 0; l < k; l++ {
					if l == i || l == j {
						continue
					}
					if !f(x, groupLit(g.Lits, j, l).Not(), groupLit(g.Lits, i, l)) {
						return false
					}
				}
			}
		}
	}
	return true
}

// Expand returns a copy of the formula without groups: the same clauses,
// followed by every group's transitivity clauses in eachTriple order. It is
// the plain-clause reading of the formula, for export and for oracles.
func (c *CNF) Expand() *CNF {
	out := &CNF{NVars: c.NVars, Clauses: make([][]Lit, 0, len(c.Clauses)+c.NumTriples())}
	for _, cl := range c.Clauses {
		out.Add(cl...)
	}
	c.eachTriple(func(a, b, d Lit) bool {
		out.Add(a, b, d)
		return true
	})
	return out
}

// installGroups joins into s every group member it does not hold yet. The
// solver's group g mirrors c.Groups[g], and the solver counts its members,
// so LoadInto and AppendInto install exactly the unseen part of each group.
func (c *CNF) installGroups(s *Solver) bool {
	for len(s.groups) < len(c.Groups) {
		s.groups = append(s.groups, group{})
	}
	// Size the matrix and bit-plane arenas and the occurrence list once for
	// every join.
	cells, words, occs := 0, 0, 0
	for g := range c.Groups {
		n, sg := c.Groups[g].Members, &s.groups[g]
		if n > sg.stride {
			st := sg.newStride(n)
			cells += st * st
			words += st * 4 * rowWords(st)
		}
		occs += n*(n-1) - sg.k*(sg.k-1)
	}
	s.gmat = slices.Grow(s.gmat, cells)
	s.gbits = slices.Grow(s.gbits, words)
	s.occs = slices.Grow(s.occs, occs)
	ok := true
	for g := range c.Groups {
		gr, sg := &c.Groups[g], &s.groups[g]
		if gr.Members > sg.stride {
			s.growGroup(g, gr.Members)
		}
		for m := sg.k; m < gr.Members; m++ {
			if !s.joinGroup(g, gr.Lits[m*(m-1):m*(m+1)]) {
				ok = false
			}
		}
	}
	return ok
}

// group is the solver's copy of an order group: lit(i,j) sits at
// gmat[off+i*stride+j] of the solver's group-matrix arena, so propagation
// reads rows and columns directly.
//
// Next to the matrix, four bit planes record which pair literals are
// assigned: member i's rows, words uint64s each and stride bits wide, sit
// at gbits[bits+4*words*i:] as
//
//	T_out: bit l set iff lit(i,l) is true
//	F_out: bit l set iff lit(i,l) is false
//	T_in:  bit l set iff lit(l,i) is true
//	F_in:  bit l set iff lit(l,i) is false
//
// A bit records the value of the group's literal, not its variable's sign.
// Bits are set when a literal is enqueued and cleared when it is undone, so
// at every point they agree with the assignment propagatePair reads.
type group struct {
	k, stride, off int
	bits, words    int
}

// rowWords is the number of uint64 words a row of stride bits needs.
func rowWords(stride int) int { return (stride + 63) / 64 }

// groupOcc records that a variable is the pair (i, j) of group g, whose
// literal is its variable's negation if neg; next links the variable's
// occurrences (-1 ends the list). out and in are the gbits indices of the
// words holding the pair's T_out bit (row i, bit bj = j%64) and T_in bit
// (row j, bit bi = i%64); the F planes' words sit w further on.
type groupOcc struct {
	g, i, j, next int32
	out, in, w    int32
	bj, bi        uint8
	neg           bool
}

// reasonSlot is an arena clause lent to a group consequence: the reason of
// the trail literal at pos, or a conflict found with pos literals on the
// trail.
type reasonSlot struct {
	cr  clauseRef
	pos int
}

// joinGroup adds a member to group g (pairs as for CNF.Join); the group's
// stride must already hold it (installGroups sizes it). Atoms of the new
// pairs that are already fixed at level 0 were propagated before the
// member existed, so they are replayed over its triples: the closure is the
// same whatever order clauses and members arrive in. It returns false if
// the solver is (or became) unsatisfiable.
func (s *Solver) joinGroup(g int, pairs []Lit) bool {
	s.haveModl = false
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: group join above decision level 0")
	}
	gr := &s.groups[g]
	m := gr.k
	gr.k++
	s.triples += 3 * m * (m - 1)
	mat := s.gmat[gr.off:]
	for i := 0; i < m; i++ {
		mat[i*gr.stride+m], mat[m*gr.stride+i] = pairs[2*i], pairs[2*i+1]
		s.addOcc(pairs[2*i], g, i, m)
		s.addOcc(pairs[2*i+1], g, m, i)
	}
	// The new atoms fixed at level 0 enter the planes before the replay
	// reads them.
	for _, x := range pairs {
		if s.value(x) != lUndef {
			s.markGroups(MkLit(x.Var(), s.assigns[x.Var()] == lFalse), true)
		}
	}
	for i := 0; i < m; i++ {
		for _, p := range [2]struct{ i, j int }{{i, m}, {m, i}} {
			x := mat[p.i*gr.stride+p.j]
			switch s.value(x) {
			case lUndef:
				continue
			case lFalse:
				x = x.Not()
			}
			if s.propagatePair(gr, p.i, p.j, x) != noClause {
				s.ok = false
				return false
			}
		}
	}
	s.ok = s.propagate() == noClause
	return s.ok
}

// newStride is the stride a group needs for n members: at least double
// the current one.
func (gr *group) newStride(n int) int { return max(2*gr.stride, n, 8) }

// growGroup moves group g's matrix and bit planes to fresh arena regions
// whose stride holds at least n members, at least doubling it, and points
// the group's occurrences at the new planes. The old regions are left
// behind until Reset.
func (s *Solver) growGroup(g, n int) {
	gr := &s.groups[g]
	st, off := gr.newStride(n), len(s.gmat)
	s.gmat = append(s.gmat, make([]Lit, st*st)...)
	for i := 0; i < gr.k; i++ {
		copy(s.gmat[off+i*st:off+i*st+gr.k], s.gmat[gr.off+i*gr.stride:])
	}
	w, bits := rowWords(st), len(s.gbits)
	s.gbits = append(s.gbits, make([]uint64, st*4*w)...)
	for i := 0; i < gr.k; i++ {
		for p := 0; p < 4; p++ {
			copy(s.gbits[bits+(4*i+p)*w:], s.gbits[gr.bits+(4*i+p)*gr.words:gr.bits+(4*i+p+1)*gr.words])
		}
	}
	gr.stride, gr.off, gr.bits, gr.words = st, off, bits, w
	if gr.k < 2 {
		return // no pairs yet, so no occurrences
	}
	for o := range s.occs {
		if oc := &s.occs[o]; int(oc.g) == g {
			oc.place(gr)
		}
	}
}

func (s *Solver) addOcc(x Lit, g, i, j int) {
	v := x.Var()
	oc := groupOcc{g: int32(g), i: int32(i), j: int32(j), next: s.occHead[v], neg: x.Neg()}
	oc.place(&s.groups[g])
	s.occs = append(s.occs, oc)
	s.occHead[v] = int32(len(s.occs) - 1)
}

// place computes the occurrence's plane words in its group's layout.
func (oc *groupOcc) place(gr *group) {
	i, j, w := int(oc.i), int(oc.j), gr.words
	oc.out = int32(gr.bits + 4*w*i + j/64)
	oc.in = int32(gr.bits + 4*w*j + 2*w + i/64)
	oc.w = int32(w)
	oc.bj, oc.bi = uint8(j%64), uint8(i%64)
}

// markGroups sets (or, if !set, clears) the plane bits of every group pair
// whose variable the trail literal p assigns.
func (s *Solver) markGroups(p Lit, set bool) {
	for o := s.occHead[p.Var()]; o >= 0; o = s.occs[o].next {
		oc := &s.occs[o]
		out, in := oc.out, oc.in
		if p.Neg() != oc.neg { // the group's literal is false
			out, in = out+oc.w, in+oc.w
		}
		if set {
			s.gbits[out] |= 1 << oc.bj
			s.gbits[in] |= 1 << oc.bi
		} else {
			s.gbits[out] &^= 1 << oc.bj
			s.gbits[in] &^= 1 << oc.bi
		}
	}
}

// propagateGroups runs the group rules for the trail literal p; it returns
// the conflicting clause or noClause.
func (s *Solver) propagateGroups(p Lit) clauseRef {
	for o := s.occHead[p.Var()]; o >= 0; o = s.occs[o].next {
		oc := &s.occs[o]
		if cr := s.propagatePair(&s.groups[oc.g], int(oc.i), int(oc.j), p); cr != noClause {
			return cr
		}
	}
	return noClause
}

// propagatePair applies, for the pair (i, j) whose variable p has just
// fixed, the unit-propagation rules of every transitivity clause the pair
// occurs in. With x_ij true those are (¬x_ij ∨ ¬x_jl ∨ x_il) and
// (¬x_li ∨ ¬x_ij ∨ x_lj); with x_ij false, (¬x_il ∨ ¬x_lj ∨ x_ij). Each has
// the shape (f ∨ ¬a ∨ c) with f false, and can only act once a is true or
// c is false while the clause is not yet satisfied. The bit planes of rows
// i and j yield exactly the members l for which one of them can, and only
// those are visited, in ascending order, each with the tests a scan over
// every member would apply.
func (s *Solver) propagatePair(gr *group, i, j int, p Lit) clauseRef {
	st, m, w := gr.stride, s.gmat[gr.off:], gr.words
	x := m[i*st+j]
	ri, rj := s.gbits[gr.bits+4*w*i:], s.gbits[gr.bits+4*w*j:]
	isTrue := p == x
	// Every pair has its own variable, so an enqueue at column l changes
	// only bit l of these rows: a word's mask, taken once, stays exact.
	for wd := 0; wd < w; wd++ {
		tOutI, fOutI, tInI, fInI := ri[wd], ri[w+wd], ri[2*w+wd], ri[3*w+wd]
		tOutJ, fOutJ, tInJ, fInJ := rj[wd], rj[w+wd], rj[2*w+wd], rj[3*w+wd]
		var mask uint64
		if isTrue {
			mask = tOutJ&^tOutI | fOutI&^fOutJ | tInI&^tInJ | fInJ&^fInI
		} else {
			mask = tOutI&^fInJ | tInJ&^fOutI
		}
		if i/64 == wd {
			mask &^= 1 << (i % 64)
		}
		if j/64 == wd {
			mask &^= 1 << (j % 64)
		}
		for ; mask != 0; mask &= mask - 1 {
			l := wd*64 + bits.TrailingZeros64(mask)
			if isTrue {
				if a, c := m[j*st+l], m[i*st+l]; s.value(a) == lTrue || s.value(c) == lFalse {
					if cr := s.triple(x.Not(), a.Not(), c); cr != noClause {
						return cr
					}
				}
				if a, c := m[l*st+i], m[l*st+j]; s.value(a) == lTrue || s.value(c) == lFalse {
					if cr := s.triple(x.Not(), a.Not(), c); cr != noClause {
						return cr
					}
				}
			} else if a, c := m[i*st+l], m[l*st+j].Not(); s.value(a) == lTrue || s.value(c) == lFalse {
				if cr := s.triple(x, a.Not(), c); cr != noClause {
					return cr
				}
			}
		}
	}
	return noClause
}

// triple handles the clause (f ∨ b ∨ d) in which f is false: it enqueues
// the last open literal once the other is false too, and returns the clause
// as a conflict when all three are false.
func (s *Solver) triple(f, b, d Lit) clauseRef {
	vb, vd := s.value(b), s.value(d)
	switch {
	case vb == lTrue || vd == lTrue:
	case vb == lFalse && vd == lFalse:
		return s.reasonClause(f, b, d)
	case vb == lFalse:
		s.groupEnqueue(d, f, b)
	case vd == lFalse:
		s.groupEnqueue(b, f, d)
	}
	return noClause
}

// groupEnqueue assigns l, implied by the false literals a and b. Level-0
// literals need no reason: conflict analysis never expands them.
func (s *Solver) groupEnqueue(l, a, b Lit) {
	if s.decisionLevel() == 0 {
		s.uncheckedEnqueue(l, noClause)
		return
	}
	s.uncheckedEnqueue(l, s.reasonClause(l, a, b))
}

// reasonClause stores the clause (a ∨ b ∨ d) in a reason slot for the
// literal about to be enqueued (or for a conflict) and returns it. Slots
// are problem clauses to analyze and minimize; cancelUntil hands them back,
// so assumption solves on one solver reuse the same few arena entries.
func (s *Solver) reasonClause(a, b, d Lit) clauseRef {
	var cr clauseRef
	if n := len(s.freeSlots); n > 0 {
		cr = s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
	} else {
		cr = clauseRef(len(s.arena))
		s.arena = append(s.arena, clause{lits: s.allocLits([]Lit{a, b, d})})
	}
	ls := s.arena[cr].lits
	ls[0], ls[1], ls[2] = a, b, d
	s.usedSlots = append(s.usedSlots, reasonSlot{cr: cr, pos: len(s.trail)})
	return cr
}

// releaseSlots returns the reason slots of trail positions from lim on.
func (s *Solver) releaseSlots(lim int) {
	n := len(s.usedSlots)
	for n > 0 && s.usedSlots[n-1].pos >= lim {
		n--
		s.freeSlots = append(s.freeSlots, s.usedSlots[n].cr)
	}
	s.usedSlots = s.usedSlots[:n]
}

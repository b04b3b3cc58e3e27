package sat

import "slices"

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
	// Size the matrix arena and the occurrence list once for every join.
	cells, occs := 0, 0
	for g := range c.Groups {
		n, sg := c.Groups[g].Members, &s.groups[g]
		if n > sg.stride {
			st := sg.newStride(n)
			cells += st * st
		}
		occs += n*(n-1) - sg.k*(sg.k-1)
	}
	s.gmat = slices.Grow(s.gmat, cells)
	s.occs = slices.Grow(s.occs, occs)
	ok := true
	for g := range c.Groups {
		gr, sg := &c.Groups[g], &s.groups[g]
		if gr.Members > sg.stride {
			s.growGroup(sg, gr.Members)
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
type group struct {
	k, stride, off int
}

// groupOcc records that a variable is the pair (i, j) of group g; next
// links the variable's occurrences (-1 ends the list).
type groupOcc struct {
	g, i, j, next int32
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
		s.addOcc(pairs[2*i].Var(), g, i, m)
		s.addOcc(pairs[2*i+1].Var(), g, m, i)
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

// growGroup moves the group's matrix to a fresh arena region whose stride
// holds at least n members, at least doubling it. The old region is left
// behind until Reset.
func (s *Solver) growGroup(gr *group, n int) {
	st, off := gr.newStride(n), len(s.gmat)
	s.gmat = append(s.gmat, make([]Lit, st*st)...)
	for i := 0; i < gr.k; i++ {
		copy(s.gmat[off+i*st:off+i*st+gr.k], s.gmat[gr.off+i*gr.stride:])
	}
	gr.stride, gr.off = st, off
}

func (s *Solver) addOcc(v Var, g, i, j int) {
	s.occs = append(s.occs, groupOcc{g: int32(g), i: int32(i), j: int32(j), next: s.occHead[v]})
	s.occHead[v] = int32(len(s.occs) - 1)
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
// the shape (f ∨ ¬a ∨ c) with f false, and can only fire once a is true or
// c is false; the loop tests that before anything else.
func (s *Solver) propagatePair(gr *group, i, j int, p Lit) clauseRef {
	st, m := gr.stride, s.gmat[gr.off:]
	x := m[i*st+j]
	rowI, rowJ := m[i*st:i*st+gr.k], m[j*st:j*st+gr.k]
	if p == x {
		for l := range rowI {
			if l == i || l == j {
				continue
			}
			if a, c := rowJ[l], rowI[l]; s.value(a) == lTrue || s.value(c) == lFalse {
				if cr := s.triple(x.Not(), a.Not(), c); cr != noClause {
					return cr
				}
			}
			if a, c := m[l*st+i], m[l*st+j]; s.value(a) == lTrue || s.value(c) == lFalse {
				if cr := s.triple(x.Not(), a.Not(), c); cr != noClause {
					return cr
				}
			}
		}
		return noClause
	}
	for l := range rowI {
		if l == i || l == j {
			continue
		}
		if a, c := rowI[l], m[l*st+j].Not(); s.value(a) == lTrue || s.value(c) == lFalse {
			if cr := s.triple(x, a.Not(), c); cr != noClause {
				return cr
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

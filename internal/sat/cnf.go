package sat

import (
	"fmt"
	"strings"
)

// cnfBlockLits is the chunk size of the CNF literal arena. Formulas in this
// module run from hundreds to a few hundred thousand literals; 16Ki-literal
// (64 KiB) blocks keep the block count small without over-reserving for tiny
// formulas.
const cnfBlockLits = 1 << 14

// CNF is a plain clause-set container, decoupled from any solver instance so
// it can be copied, filtered and re-solved cheaply. The encode package
// produces CNF values; core algorithms load them into Solvers.
//
// Clause literals are stored in a chunked arena: Add copies each clause into
// the current block instead of allocating a fresh slice per clause, and
// Reset rewinds the arena for reuse so one CNF value can carry thousands of
// formulas over its lifetime without reallocating. Clauses remain exposed as
// an ordinary [][]Lit — the sub-slices alias the arena and must not be
// mutated or retained across Reset.
//
// Next to the clauses a CNF carries order groups (see Group), append-only
// like Clauses: each stands for the transitivity clauses over its members
// without storing them.
type CNF struct {
	NVars   int
	Clauses [][]Lit
	Groups  []Group

	blocks [][]Lit // literal arena; blocks[cur] is being filled
	cur    int
}

// NewCNF creates an empty formula over n variables.
func NewCNF(n int) *CNF { return &CNF{NVars: n} }

// Reset empties the formula (NVars 0, no clauses, no groups) while keeping
// the clause index, literal arena and group storage allocated for reuse.
// Slices previously obtained from Clauses or Groups are invalidated.
func (c *CNF) Reset() {
	c.NVars = 0
	c.Clauses = c.Clauses[:0]
	c.Groups = c.Groups[:0]
	for i := range c.blocks {
		c.blocks[i] = c.blocks[i][:0]
	}
	c.cur = 0
}

// alloc returns an empty arena slice with capacity for n more literals.
func (c *CNF) alloc(n int) []Lit {
	for c.cur < len(c.blocks) {
		b := c.blocks[c.cur]
		if cap(b)-len(b) >= n {
			return b[len(b):len(b):cap(b)]
		}
		c.cur++
	}
	size := cnfBlockLits
	if n > size {
		size = n
	}
	c.blocks = append(c.blocks, make([]Lit, 0, size))
	c.cur = len(c.blocks) - 1
	return c.blocks[c.cur]
}

// Add appends a clause (copied into the arena).
func (c *CNF) Add(lits ...Lit) {
	for _, l := range lits {
		if int(l.Var()) >= c.NVars {
			c.NVars = int(l.Var()) + 1
		}
	}
	cl := append(c.alloc(len(lits)), lits...)
	c.blocks[c.cur] = c.blocks[c.cur][:len(c.blocks[c.cur])+len(cl)]
	c.Clauses = append(c.Clauses, cl[:len(cl):len(cl)])
}

// Clone deep-copies the formula. The copy's literals live in one flat block,
// independent of the receiver's arena.
func (c *CNF) Clone() *CNF {
	flat := make([]Lit, 0, c.NumLiterals())
	cp := &CNF{NVars: c.NVars, Clauses: make([][]Lit, len(c.Clauses))}
	for i, cl := range c.Clauses {
		start := len(flat)
		flat = append(flat, cl...)
		cp.Clauses[i] = flat[start:len(flat):len(flat)]
	}
	cp.blocks = [][]Lit{flat}
	cp.cur = 0
	if len(c.Groups) > 0 {
		cp.Groups = make([]Group, len(c.Groups))
		for i, g := range c.Groups {
			cp.Groups[i] = Group{Members: g.Members, Lits: append([]Lit(nil), g.Lits...)}
		}
	}
	return cp
}

// LoadInto feeds all clauses and groups to a solver, allocating variables
// as needed. It returns false if the solver became unsatisfiable while
// loading.
func (c *CNF) LoadInto(s *Solver) bool {
	for s.NumVars() < c.NVars {
		s.NewVar()
	}
	ok := true
	for _, cl := range c.Clauses {
		if !s.AddClause(cl...) {
			ok = false
		}
	}
	return c.installGroups(s) && ok
}

// AppendInto feeds only Clauses[from:] to a solver that already holds the
// earlier prefix, allocating variables as needed. It is the delta-loading
// half of incremental sessions: after the formula grows (Se ⊕ Ot), only the
// new clauses are attached, preserving the solver's learned-clause state.
// Groups need no index: the solver counts the members it holds, and the
// unseen ones join. It returns false if the solver is (or became)
// unsatisfiable.
func (c *CNF) AppendInto(s *Solver, from int) bool {
	for s.NumVars() < c.NVars {
		s.NewVar()
	}
	if from < 0 {
		from = 0
	}
	ok := s.Okay()
	for i := from; i < len(c.Clauses); i++ {
		if !s.AddClause(c.Clauses[i]...) {
			ok = false
		}
	}
	return c.installGroups(s) && ok
}

// Solver builds a fresh solver loaded with the formula.
func (c *CNF) Solver() *Solver {
	s := New()
	c.LoadInto(s)
	return s
}

// NumLiterals returns the total literal count across clauses.
func (c *CNF) NumLiterals() int {
	n := 0
	for _, cl := range c.Clauses {
		n += len(cl)
	}
	return n
}

// Eval reports whether the assignment (indexed by variable) satisfies every
// clause and every group's transitivity clauses.
func (c *CNF) Eval(assign []bool) bool {
	holds := func(l Lit) bool { return assign[l.Var()] != l.Neg() }
	for _, cl := range c.Clauses {
		sat := false
		for _, l := range cl {
			if holds(l) {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return c.eachTriple(func(a, b, d Lit) bool { return holds(a) || holds(b) || holds(d) })
}

// String renders the formula in a compact DIMACS-like form, groups
// expanded; for debugging.
func (c *CNF) String() string {
	x := c.Expand()
	var b strings.Builder
	fmt.Fprintf(&b, "p cnf %d %d\n", x.NVars, len(x.Clauses))
	for _, cl := range x.Clauses {
		for i, l := range cl {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(l.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SolveBrute decides satisfiability by exhaustive enumeration; it is the
// reference oracle for property tests and only usable for small NVars
// (it panics above 25 variables). It returns the status and, when
// satisfiable, a witness assignment.
func (c *CNF) SolveBrute() (Status, []bool) {
	if c.NVars > 25 {
		panic("sat: SolveBrute limited to 25 variables")
	}
	n := c.NVars
	assign := make([]bool, n)
	for mask := 0; mask < 1<<uint(n); mask++ {
		for i := 0; i < n; i++ {
			assign[i] = mask&(1<<uint(i)) != 0
		}
		if c.Eval(assign) {
			return StatusSat, append([]bool(nil), assign...)
		}
	}
	return StatusUnsat, nil
}

// Package maxsat solves partial MaxSAT problems: hard clauses that must hold
// plus soft clause groups, maximizing the number of groups kept.
//
// It stands in for the WalkSat dependency of Fan et al. (ICDE 2013): the
// Suggest algorithm (Section V-C) needs "a maximum subgraph C′ of a clique C
// that has no conflicts with the specification", which is exactly
// hard = Φ(Se), one soft group of unit facts per clique node. Groups are few
// (clique sizes), so an exact SAT-oracle branch-and-bound is practical; a
// WalkSAT-style stochastic local-search mode is provided for plain MaxSAT
// over clause sets.
package maxsat

import (
	"math/rand"
	"sort"

	"conflictres/internal/sat"
)

// Problem is a partial MaxSAT instance with group-structured soft
// constraints: each group counts as kept only if all its literals hold.
type Problem struct {
	Hard   *sat.CNF
	Groups [][]sat.Lit
}

// Options tunes Solve.
type Options struct {
	// MaxConflictsPerCheck bounds each SAT oracle call; 0 = unbounded.
	MaxConflictsPerCheck int64
	// ExactGroupLimit is the largest group count solved exactly; larger
	// instances fall back to the greedy algorithm. Default 24.
	ExactGroupLimit int
}

func (o Options) exactLimit() int {
	if o.ExactGroupLimit <= 0 {
		return 24
	}
	return o.ExactGroupLimit
}

// Solve returns the indices (sorted) of a maximum subset of groups that is
// jointly satisfiable with the hard clauses, and whether the hard clauses
// alone are satisfiable. When the group count exceeds ExactGroupLimit the
// result is a maximal (greedy) rather than maximum subset.
//
// One incremental solver carries the hard clauses across all checks; group
// membership is probed through assumption literals, so the per-check cost is
// a single assumption-scoped search instead of a formula reload.
func Solve(p *Problem, opts Options) (kept []int, hardOK bool) {
	s := sat.New()
	if !p.Hard.LoadInto(s) {
		return nil, false
	}
	return SolveWith(s, p.Groups, opts)
}

// SolveWith is Solve against a caller-supplied solver already holding the
// hard clauses — typically a resolution session's incremental solver. Group
// membership is probed purely through assumptions, so the solver's clause
// set is unchanged while its learned clauses are reused and extended. The
// solver's MaxConflicts setting is saved and restored around the probes.
func SolveWith(s *sat.Solver, groups [][]sat.Lit, opts Options) (kept []int, hardOK bool) {
	saved := s.MaxConflicts
	s.MaxConflicts = opts.MaxConflictsPerCheck
	defer func() { s.MaxConflicts = saved }()
	if s.Solve() != sat.StatusSat {
		return nil, false
	}
	if len(groups) == 0 {
		return nil, true
	}
	c := &checker{s: s, p: &Problem{Groups: groups}}
	if len(groups) <= opts.exactLimit() {
		return c.solveExact(), true
	}
	return c.solveGreedy(), true
}

// SolveWithWeights is SolveWith with a per-group weight objective: instead of
// maximizing the kept-group count, higher-weight groups are preferred. With a
// nil or uniform weight vector it dispatches to SolveWith — byte-identical to
// the unweighted algorithm, which keeps the default (uniform-trust) pipeline
// pinned to its historical outcomes. Non-uniform weights select groups by
// weight-lexicographic greedy: groups are visited in descending weight
// (original index breaks ties, so equal-weight prefixes behave exactly like
// the unweighted greedy pass) and each group consistent with the hard clauses
// and the groups kept so far is kept.
func SolveWithWeights(s *sat.Solver, groups [][]sat.Lit, weights []float64, opts Options) (kept []int, hardOK bool) {
	if uniformWeights(weights, len(groups)) {
		return SolveWith(s, groups, opts)
	}
	saved := s.MaxConflicts
	s.MaxConflicts = opts.MaxConflictsPerCheck
	defer func() { s.MaxConflicts = saved }()
	if s.Solve() != sat.StatusSat {
		return nil, false
	}
	if len(groups) == 0 {
		return nil, true
	}
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if weights[order[a]] != weights[order[b]] {
			return weights[order[a]] > weights[order[b]]
		}
		return order[a] < order[b]
	})
	c := &checker{s: s, p: &Problem{Groups: groups}}
	var chosen []int
	for _, i := range order {
		cand := append(append([]int(nil), chosen...), i)
		if c.ok(cand) {
			chosen = cand
		}
	}
	sort.Ints(chosen)
	return chosen, true
}

// uniformWeights reports whether the weight vector expresses no preference
// (nil, short, or all-equal) — the cases that must match SolveWith exactly.
func uniformWeights(weights []float64, n int) bool {
	if len(weights) < n {
		return true
	}
	for i := 1; i < n; i++ {
		if weights[i] != weights[0] {
			return false
		}
	}
	return true
}

// checker probes group subsets against one incremental solver.
type checker struct {
	s *sat.Solver
	p *Problem
}

// ok reports whether hard ∧ (all groups' literals) is satisfiable. A group
// whose literals contain a complementary pair is never satisfiable; the
// solver's assumption mechanism handles that case because the later
// assumption sees the earlier one's forced value.
func (c *checker) ok(groups []int) bool {
	var assume []sat.Lit
	for _, g := range groups {
		assume = append(assume, c.p.Groups[g]...)
	}
	return c.s.Solve(assume...) == sat.StatusSat
}

// solveExact runs branch and bound over include/exclude decisions per group.
func (c *checker) solveExact() []int {
	n := len(c.p.Groups)
	best := []int{}
	var cur []int

	var rec func(idx int)
	rec = func(idx int) {
		if len(cur)+(n-idx) <= len(best) {
			return // cannot beat the incumbent
		}
		if idx == n {
			if len(cur) > len(best) {
				best = append([]int(nil), cur...)
			}
			return
		}
		// Branch 1: include group idx if consistent.
		if c.ok(append(cur, idx)) {
			cur = append(cur, idx)
			rec(idx + 1)
			cur = cur[:len(cur)-1]
		}
		// Branch 2: exclude.
		rec(idx + 1)
	}
	rec(0)
	sort.Ints(best)
	return best
}

// solveGreedy adds groups one at a time, keeping each that stays consistent.
func (c *checker) solveGreedy() []int {
	var kept []int
	for i := range c.p.Groups {
		cand := append(append([]int(nil), kept...), i)
		if c.ok(cand) {
			kept = cand
		}
	}
	return kept
}

// MaxSatisfiable runs WalkSAT-style stochastic local search on a plain CNF,
// maximizing the number of satisfied clauses. It returns the best assignment
// found and its satisfied-clause count. It never fails; with maxFlips
// exhausted it returns the best seen. Deterministic for a fixed seed.
// Order groups count as their transitivity clauses, appended after the
// clauses (sat.CNF.Expand).
func MaxSatisfiable(c *sat.CNF, maxFlips int, noise float64, seed int64) ([]bool, int) {
	if len(c.Groups) > 0 {
		c = c.Expand()
	}
	rng := rand.New(rand.NewSource(seed))
	n := c.NVars
	assign := make([]bool, n)
	for i := range assign {
		assign[i] = rng.Intn(2) == 0
	}
	best := append([]bool(nil), assign...)
	bestSat := countSat(c, assign)

	for flip := 0; flip < maxFlips && bestSat < len(c.Clauses); flip++ {
		// Pick a random unsatisfied clause.
		unsat := unsatClauses(c, assign)
		if len(unsat) == 0 {
			break
		}
		cl := c.Clauses[unsat[rng.Intn(len(unsat))]]
		if len(cl) == 0 {
			continue // empty clause can never be satisfied
		}
		var v sat.Var
		if rng.Float64() < noise {
			v = cl[rng.Intn(len(cl))].Var()
		} else {
			// Greedy: flip the variable minimizing newly broken clauses.
			bestBreak := int(^uint(0) >> 1)
			for _, l := range cl {
				b := breakCount(c, assign, l.Var())
				if b < bestBreak {
					bestBreak = b
					v = l.Var()
				}
			}
		}
		assign[v] = !assign[v]
		if s := countSat(c, assign); s > bestSat {
			bestSat = s
			copy(best, assign)
		}
	}
	return best, bestSat
}

func countSat(c *sat.CNF, assign []bool) int {
	n := 0
	for _, cl := range c.Clauses {
		for _, l := range cl {
			if assign[l.Var()] != l.Neg() {
				n++
				break
			}
		}
	}
	return n
}

func unsatClauses(c *sat.CNF, assign []bool) []int {
	var out []int
	for i, cl := range c.Clauses {
		sat := false
		for _, l := range cl {
			if assign[l.Var()] != l.Neg() {
				sat = true
				break
			}
		}
		if !sat {
			out = append(out, i)
		}
	}
	return out
}

// breakCount counts clauses satisfied now that become unsatisfied if v flips.
func breakCount(c *sat.CNF, assign []bool, v sat.Var) int {
	assign[v] = !assign[v]
	after := countSat(c, assign)
	assign[v] = !assign[v]
	before := countSat(c, assign)
	if d := before - after; d > 0 {
		return d
	}
	return 0
}

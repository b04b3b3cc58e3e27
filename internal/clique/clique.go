// Package clique finds maximum cliques in small undirected graphs.
//
// It stands in for the maximum-clique tool of Fan et al. (ICDE 2013),
// Section V-C: the Suggest algorithm takes a maximum clique of the
// compatibility graph of derivation rules. Compatibility graphs have at most
// |R|·|It| nodes and in practice tens, so an exact branch-and-bound with a
// greedy-colouring upper bound (Tomita-style) is used; beyond a node budget
// the solver degrades to a greedy heuristic, mirroring the approximation
// tool the paper cites.
package clique

import "sort"

// Graph is a simple undirected graph over vertices 0..n-1.
type Graph struct {
	n   int
	adj []bool
}

// NewGraph creates an empty graph with n vertices.
func NewGraph(n int) *Graph {
	return &Graph{n: n, adj: make([]bool, n*n)}
}

// Len returns the vertex count.
func (g *Graph) Len() int { return g.n }

// AddEdge inserts the undirected edge {i, j}; self-loops are ignored.
func (g *Graph) AddEdge(i, j int) {
	if i == j || i < 0 || j < 0 || i >= g.n || j >= g.n {
		return
	}
	g.adj[i*g.n+j] = true
	g.adj[j*g.n+i] = true
}

// HasEdge reports whether {i, j} is an edge.
func (g *Graph) HasEdge(i, j int) bool {
	if i < 0 || j < 0 || i >= g.n || j >= g.n {
		return false
	}
	return g.adj[i*g.n+j]
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	d := 0
	for u := 0; u < g.n; u++ {
		if g.adj[v*g.n+u] {
			d++
		}
	}
	return d
}

// byDegree lists the vertices by degree, descending. Degrees are computed
// once, up front: the comparator only reads them.
func (g *Graph) byDegree() []int {
	order := make([]int, g.n)
	deg := make([]int, g.n)
	for i := range order {
		order[i] = i
		deg[i] = g.Degree(i)
	}
	sort.Slice(order, func(a, b int) bool { return deg[order[a]] > deg[order[b]] })
	return order
}

// IsClique reports whether the vertex set is pairwise adjacent.
func (g *Graph) IsClique(vs []int) bool {
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if !g.HasEdge(vs[i], vs[j]) {
				return false
			}
		}
	}
	return true
}

// budget bounds the branch-and-bound node count before degrading to the
// greedy result found so far.
const defaultBudget = 1 << 20

// MaxClique returns a maximum clique (exact for graphs explored within the
// internal node budget; otherwise the best clique found). The result is
// sorted ascending. The empty graph yields an empty slice; a graph with
// vertices but no edges yields a single vertex.
func (g *Graph) MaxClique() []int {
	return g.MaxCliqueBudget(defaultBudget)
}

// MaxCliqueBudget is MaxClique with an explicit node budget.
func (g *Graph) MaxCliqueBudget(budget int) []int {
	if g.n == 0 {
		return nil
	}
	best := g.GreedyClique() // seed the incumbent
	var cur []int
	nodes := 0

	// Order candidates by degree descending for better early bounds.
	order := g.byDegree()

	var expand func(cand []int)
	expand = func(cand []int) {
		nodes++
		if nodes > budget {
			return
		}
		if len(cand) == 0 {
			if len(cur) > len(best) {
				best = append([]int(nil), cur...)
			}
			return
		}
		// Greedy colouring bound: colours(cand) + |cur| ≤ |best| ⇒ prune.
		colours, colourOf := g.colourBound(cand)
		if len(cur)+colours <= len(best) {
			return
		}
		// Explore candidates in decreasing colour order (Tomita).
		byColour := append([]int(nil), cand...)
		sort.Slice(byColour, func(a, b int) bool { return colourOf[byColour[a]] > colourOf[byColour[b]] })
		for idx, v := range byColour {
			if len(cur)+colourOf[v] <= len(best) {
				return // all remaining have smaller colour numbers
			}
			// New candidate set: neighbours of v among later candidates.
			var next []int
			for _, u := range byColour[idx+1:] {
				if g.HasEdge(v, u) {
					next = append(next, u)
				}
			}
			cur = append(cur, v)
			expand(next)
			cur = cur[:len(cur)-1]
		}
	}
	expand(order)
	sort.Ints(best)
	return best
}

// colourBound greedily colours the candidate subgraph; the colour count is
// an upper bound on the largest clique within cand. colourOf maps vertex →
// its 1-based colour number.
func (g *Graph) colourBound(cand []int) (int, map[int]int) {
	colourOf := make(map[int]int, len(cand))
	colours := 0
	for _, v := range cand {
		used := map[int]bool{}
		for _, u := range cand {
			if u != v && g.HasEdge(v, u) {
				if c, ok := colourOf[u]; ok {
					used[c] = true
				}
			}
		}
		c := 1
		for used[c] {
			c++
		}
		colourOf[v] = c
		if c > colours {
			colours = c
		}
	}
	return colours, colourOf
}

// GreedyClique grows a clique greedily from each vertex in degree order and
// returns the best found; sorted ascending.
func (g *Graph) GreedyClique() []int {
	if g.n == 0 {
		return nil
	}
	order := g.byDegree()

	var best []int
	for _, seed := range order {
		clique := []int{seed}
		for _, v := range order {
			if v == seed {
				continue
			}
			ok := true
			for _, u := range clique {
				if !g.HasEdge(v, u) {
					ok = false
					break
				}
			}
			if ok {
				clique = append(clique, v)
			}
		}
		if len(clique) > len(best) {
			best = clique
		}
	}
	sort.Ints(best)
	return best
}

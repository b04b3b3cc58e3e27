package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"conflictres/internal/clique"
	"conflictres/internal/encode"
	"conflictres/internal/relation"
)

// Rule is a true-value derivation rule (X, P[X]) → (B, Bv): if P[X] are the
// true values of the attributes X, then Bv is the true value of B
// (paper Section V-C.1).
type Rule struct {
	X  []relation.Attr
	P  []relation.Value
	B  relation.Attr
	Bv relation.Value
}

// Format renders the rule like the paper's examples:
// ({status}, {retired}) -> (job, veteran).
func (r Rule) Format(sch *relation.Schema) string {
	xs := make([]string, len(r.X))
	ps := make([]string, len(r.P))
	for i := range r.X {
		xs[i] = sch.Name(r.X[i])
		ps[i] = r.P[i].String()
	}
	return fmt.Sprintf("({%s}, {%s}) -> (%s, %s)",
		strings.Join(xs, ", "), strings.Join(ps, ", "), sch.Name(r.B), r.Bv)
}

// assignments returns the attribute→value map the rule asserts when applied:
// its premises and its conclusion.
func (r Rule) assignments() map[relation.Attr]relation.Value {
	m := make(map[relation.Attr]relation.Value, len(r.X)+1)
	for i, a := range r.X {
		m[a] = r.P[i]
	}
	m[r.B] = r.Bv
	return m
}

// appendKey appends r's dedup key to b: its premises in attribute order,
// then its conclusion, each as "attr=quoted value". The premises are
// ordered through a small index array, leaving r.X and r.P as they are.
func (r Rule) appendKey(b []byte) []byte {
	var buf [8]int
	ord := buf[:0]
	for i := range r.X {
		j := len(ord)
		ord = append(ord, i)
		for ; j > 0 && r.X[ord[j-1]] > r.X[i]; j-- {
			ord[j] = ord[j-1]
		}
		ord[j] = i
	}
	for _, i := range ord {
		b = strconv.AppendInt(b, int64(r.X[i]), 10)
		b = append(b, '=')
		b = r.P[i].AppendQuote(b)
		b = append(b, ',')
	}
	b = append(b, "=>"...)
	b = strconv.AppendInt(b, int64(r.B), 10)
	b = append(b, '=')
	return r.Bv.AppendQuote(b)
}

// TrueDer computes derivation rules from the instance constraints Ω(Se) and
// the CFDs of the specification (paper Section V-C.2):
//
//   - each constant CFD whose pattern agrees with the already-resolved true
//     values yields the rule (X, tp[X]) → (B, tp[B]);
//   - for each unresolved attribute B and candidate b ∈ V(B), the
//     currency-sourced instance constraints with head bi ≺v b are combined
//     until every competitor bi ∈ V(B)\{b} is covered, accumulating the
//     body premises into (X, P[X]).
func TrueDer(enc *encode.Encoding, od *OrderSet, resolved map[relation.Attr]relation.Value,
	cand map[relation.Attr][]relation.Value) []Rule {

	var rules []Rule
	seen := make(map[string]bool)
	var key []byte
	add := func(r Rule) {
		key = r.appendKey(key[:0])
		if !seen[string(key)] {
			seen[string(key)] = true
			rules = append(rules, r)
		}
	}

	// (1) Rules from constant CFDs.
	for _, cfd := range enc.Spec.Gamma {
		if _, done := resolved[cfd.B]; done {
			continue
		}
		ok := true
		for i, a := range cfd.X {
			if rv, has := resolved[a]; has && !relation.Equal(rv, cfd.PX[i]) {
				ok = false
				break
			}
			// A premise dominated by an active-domain value can never be a
			// true value; skip rules that could not possibly fire.
			if pi, inDom := enc.ValueIndex(a, cfd.PX[i]); inDom && od.dominatedInAdom(enc, a, pi) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if rv, has := resolved[cfd.B]; has && !relation.Equal(rv, cfd.VB) {
			continue
		}
		add(Rule{
			X:  append([]relation.Attr(nil), cfd.X...),
			P:  append([]relation.Value(nil), cfd.PX...),
			B:  cfd.B,
			Bv: cfd.VB,
		})
	}

	// (2) Rules from currency-sourced instance constraints. Partition the
	// instances by their head atom.
	byHead := make(map[headKey][]int)
	for idx, inst := range enc.Omega {
		if inst.Src.Kind != encode.SrcCurrency || len(inst.Body) == 0 {
			continue
		}
		k := headKey{inst.Head.Attr, inst.Head.A1, inst.Head.A2}
		byHead[k] = append(byHead[k], idx)
	}

	for _, b := range enc.Schema.Attrs() {
		if _, done := resolved[b]; done {
			continue
		}
		for _, bv := range cand[b] {
			bIdx, _ := enc.ValueIndex(b, bv)
			lookup := func(biIdx int) []int { return byHead[headKey{b, biIdx, bIdx}] }
			if rule, ok := buildRule(enc, resolved, lookup, b, bv, bIdx, cand[b]); ok {
				add(rule)
			}
		}
	}
	return rules
}

// headKey indexes instance constraints by their head atom.
type headKey struct {
	attr relation.Attr
	a1   int
	a2   int
}

// buildRule accumulates premises covering all competitors bi of candidate
// bv for attribute b, following V-C.2 step (iii). It fails (ok=false) when a
// competitor has no usable instance constraint or premises conflict.
func buildRule(enc *encode.Encoding, resolved map[relation.Attr]relation.Value,
	lookup func(int) []int, b relation.Attr, bv relation.Value, bIdx int,
	candidates []relation.Value) (Rule, bool) {

	prem := make(map[relation.Attr]relation.Value)
	for _, bi := range candidates {
		biIdx, _ := enc.ValueIndex(b, bi)
		if biIdx == bIdx {
			continue
		}
		covered := false
		for _, instIdx := range lookup(biIdx) {
			inst := enc.Omega[instIdx]
			trial := make(map[relation.Attr]relation.Value, len(prem))
			for k, v := range prem {
				trial[k] = v
			}
			ok := true
			for _, lit := range inst.Body {
				pv := enc.Dom(lit.Attr)[lit.A2] // the more-current side
				if lit.Attr == b {
					ok = false // self-referential premise
					break
				}
				if rv, has := resolved[lit.Attr]; has && !relation.Equal(rv, pv) {
					ok = false
					break
				}
				if old, has := trial[lit.Attr]; has && !relation.Equal(old, pv) {
					ok = false // conflicts with an already accumulated premise
					break
				}
				trial[lit.Attr] = pv
			}
			if ok {
				prem = trial
				covered = true
				break
			}
		}
		if !covered {
			return Rule{}, false
		}
	}
	if len(prem) == 0 {
		// Nothing to assume means bv is already derivable without user
		// input; such attributes do not need rules.
		return Rule{}, false
	}
	var rule Rule
	attrs := make([]relation.Attr, 0, len(prem))
	for a := range prem {
		attrs = append(attrs, a)
	}
	sort.Slice(attrs, func(i, j int) bool { return attrs[i] < attrs[j] })
	for _, a := range attrs {
		rule.X = append(rule.X, a)
		rule.P = append(rule.P, prem[a])
	}
	rule.B, rule.Bv = b, bv
	return rule, true
}

// CompGraph builds the compatibility graph of a rule set (Section V-C.1):
// rules x and y are connected iff they derive different attributes and agree
// on every attribute they both mention (premises and conclusions combined).
func CompGraph(rules []Rule) *clique.Graph {
	g := clique.NewGraph(len(rules))
	assigns := make([]map[relation.Attr]relation.Value, len(rules))
	for i, r := range rules {
		assigns[i] = r.assignments()
	}
	for i := 0; i < len(rules); i++ {
		for j := i + 1; j < len(rules); j++ {
			if rules[i].B == rules[j].B {
				continue
			}
			ok := true
			for a, v := range assigns[i] {
				if w, shared := assigns[j][a]; shared && !relation.Equal(v, w) {
					ok = false
					break
				}
			}
			if ok {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

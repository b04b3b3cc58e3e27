// Package encode compiles a specification Se = (It, Σ, Γ) into the instance
// constraints Ω(Se) and the CNF Φ(Se) of Fan et al. (ICDE 2013, Section V-A).
//
// A Boolean variable x^A_{a1 a2} stands for the value-level currency fact
// a1 ≺v_A a2 ("a2 is more current than a1 in attribute A"). The encoding
// comprises:
//
//  1. currency-order facts from the explicit edges of It, plus the implicit
//     "null ranks lowest" edges;
//  2. asymmetry and transitivity axioms making each ≺v_A a strict partial
//     order: asymmetry as binary clauses, transitivity as one order group
//     per attribute (sat.Group), which stands for the transitivity clause
//     of every ordered triple of the attribute's covered values without
//     storing any of them — the solver propagates it directly;
//  3. one instance constraint per currency constraint and tuple pair whose
//     statically evaluable body conjuncts hold;
//  4. for each constant CFD tp[X] → tp[B] and each b ∈ adom(B)\{tp[B]}, the
//     clause ωX → b ≺v tp[B], where ωX asserts every active-domain X-value
//     sits below the pattern.
//
// Two deviations from a literal reading of the paper, both documented in
// DESIGN.md: (a) tuple pairs are grouped by their projection onto the
// attributes a constraint actually references, which yields the same set of
// instance constraints with far less work on large entity instances; and
// (b) an attribute's order group covers every active value only while the
// active value set is small (TransitivityCap); larger attributes get a
// sound sparse encoding (closed unit facts plus bridge clauses, and a group
// over the values of conditional clauses only), which can only
// under-constrain — the same direction of incompleteness the paper accepts
// for its SAT reduction.
//
// Encodings are built either standalone (Build) or through a Skeleton,
// which pre-compiles the entity-independent parts of a rule set and reuses
// one encoding's storage across a stream of entities (see skeleton.go).
package encode

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"conflictres/internal/constraint"
	"conflictres/internal/model"
	"conflictres/internal/relation"
	"conflictres/internal/sat"
)

// SourceKind tags where an instance constraint came from.
type SourceKind uint8

const (
	// SrcOrder marks facts from explicit or implicit currency-order edges.
	SrcOrder SourceKind = iota
	// SrcCurrency marks instances of a currency constraint in Σ.
	SrcCurrency
	// SrcCFD marks instances of a constant CFD in Γ.
	SrcCFD
)

// Source identifies the origin of an instance constraint.
type Source struct {
	Kind  SourceKind
	Index int // index into Sigma (SrcCurrency) or Gamma (SrcCFD); -1 otherwise
}

// OrderLit is the atom dom[Attr][A1] ≺v_Attr dom[Attr][A2].
type OrderLit struct {
	Attr   relation.Attr
	A1, A2 int // indices into the attribute's value domain
}

// Instance is one instance constraint of Ω(Se): Body → Head. Facts have an
// empty body.
type Instance struct {
	Body []OrderLit
	Head OrderLit
	Src  Source
}

// Options tunes the encoder.
type Options struct {
	// TransitivityCap is the per-attribute active-value count up to which
	// the attribute's order group covers every active value; above it the
	// sparse encoding is used. Zero means the default (50).
	TransitivityCap int
	// NoProjectionDedup disables grouping tuples by constraint projection
	// and instantiates over raw tuple pairs, the literal O(|Σ||It|²)
	// reading of the paper. Identical output (instances are deduplicated
	// either way); exists for the ablation benchmarks.
	NoProjectionDedup bool
}

func (o Options) cap() int {
	if o.TransitivityCap <= 0 {
		return 50
	}
	return o.TransitivityCap
}

type pairKey struct {
	attr relation.Attr
	a1   int
	a2   int
}

// valKey canonicalizes a value for domain dedup without building strings:
// numerically equal int/float collapse onto one float key, strings and null
// keep their kind. NaN needs its own kind because NaN != NaN would make it
// unusable as a map key. (The old string-keyed scheme distinguished 0 from
// -0 through their decimal renderings; the float key collapses them, which
// agrees with relation.Equal.)
type valKey struct {
	kind relation.Kind
	f    float64
	s    string
}

const kindNaN = relation.Kind(0xfe)

func canonKey(v relation.Value) valKey {
	switch v.Kind() {
	case relation.KindNull:
		return valKey{}
	case relation.KindString:
		return valKey{kind: relation.KindString, s: v.Str()}
	default:
		f := asFloat(v)
		if math.IsNaN(f) {
			return valKey{kind: kindNaN}
		}
		return valKey{kind: relation.KindFloat, f: f}
	}
}

func asFloat(v relation.Value) float64 {
	if v.Kind() == relation.KindInt {
		return float64(v.Int64())
	}
	return v.Float64()
}

// Encoding is the compiled form of a specification. It owns the variable
// mapping and can be extended with fresh variables after construction (the
// Suggest algorithm asserts facts over pairs the original CNF never
// mentioned; EnsureLit allocates them consistently, including asymmetry).
//
// An encoding produced by a Skeleton reuses arena-backed storage: building
// the next entity on the same skeleton invalidates every slice previously
// obtained from this encoding (Dom, CNF clauses, Omega bodies). Callers that
// outlive the build — sessions, one-shot resolves — must copy out anything
// they keep, which the core package's result types already do.
type Encoding struct {
	Spec   *model.Spec
	Schema *relation.Schema

	doms   [][]relation.Value // per attribute: active domain ∪ CFD constants
	adomSz []int              // per attribute: |adom| prefix of doms at Build time
	domIdx []map[valKey]int   // canonical value -> index in doms

	// Incremental extension (Se ⊕ Ot) appends new active-domain values past
	// the CFD-constant suffix, so adom membership is the Build-time prefix
	// plus an explicit extra set; adomIdx materializes the union for loops.
	adomExtra []map[int]bool
	adomIdx   [][]int

	varOf  map[pairKey]sat.Var
	pairs  []pairKey // var -> pair
	cnf    *sat.CNF
	Omega  []Instance // facts + currency instances + CFD instances (no axioms)
	Sparse bool       // true if any attribute used the sparse transitivity path

	opts      Options
	instIdx   []int             // per Omega instance: its clause index in cnf
	active    []map[int]bool    // per attribute: values covered by full axioms
	edgesDone int               // explicit order edges already encoded
	seenOrder map[OrderLit]bool // order-fact dedup (facts have no body)
	// Instance dedup, binary keys, per source kind. The maps persist across
	// builds (skeleton reuse) with an epoch marking the current build:
	// recurring keys — entities under one rule set emit near-identical
	// instance shapes — dedup without re-allocating the key string, and the
	// boxed epoch lets stale entries be revived in place.
	seenSigma map[string]*uint32
	seenGamma map[string]*uint32
	seenEpoch uint32
	refAttrs  [][]relation.Attr // per Σ constraint; shared with the skeleton

	// tix[t][a] is the domain index of tuple t's value in attribute a, so
	// instantiation never re-hashes values. Rows are append-only and stay
	// valid (contents frozen) even when later rows grow the backing array.
	tix     [][]int32
	tixData []int32

	// Arena backing the Omega instance bodies.
	bodyBlocks [][]OrderLit
	bodyCur    int

	// Scratch storage, reused across emissions and across builds on the
	// skeleton path.
	keyBuf    []byte
	sortBuf   []OrderLit
	bodyBuf   []OrderLit
	cfdBuf    []OrderLit
	litBuf    []sat.Lit
	intBuf    []int
	projIdx   map[string]int
	projReps  []int
	projCnt   []int
	axAll     []int     // emitAxiomsOver: the merged values, by position
	axNew     []bool    // emitAxiomsOver: position holds a new value
	axLits    []sat.Lit // emitAxiomsOver: k×k pair-literal matrix
	axPos     []int     // emitAxiomsOver: group members' positions
	factEdges []map[[2]int]bool
	condVals  []map[int]bool
}

// seenKeyCap bounds the persistent instance-dedup maps: past it, the next
// build clears them (correct, just loses the cross-entity interning until
// they refill).
const seenKeyCap = 1 << 17

// Build compiles the specification. It never fails structurally (call
// Spec.Validate first); contradictory order information simply yields an
// unsatisfiable Φ(Se), which is precisely what IsValid detects.
func Build(spec *model.Spec, opts Options) *Encoding {
	e := &Encoding{opts: opts}
	e.init(spec, nil)
	return e
}

// init compiles spec into e, reusing whatever storage e already holds.
// refAttrs, when non-nil, is the skeleton's precomputed per-constraint
// attribute list (must match spec.Sigma element-wise).
func (e *Encoding) init(spec *model.Spec, refAttrs [][]relation.Attr) {
	e.Spec = spec
	e.Schema = spec.Schema()
	e.resetStorage(e.Schema.Len())
	if refAttrs != nil {
		e.refAttrs = refAttrs
	} else {
		e.refAttrs = e.refAttrs[:0]
		for _, c := range spec.Sigma {
			e.refAttrs = append(e.refAttrs, refAttrsOf(c))
		}
	}
	e.buildDomains()
	e.emitOrderFacts()
	if e.opts.NoProjectionDedup {
		e.emitCurrencyInstancesNaive()
	} else {
		e.emitCurrencyInstances()
	}
	e.emitCFDInstances()
	e.emitAxioms(e.opts.cap())
}

// resetStorage clears every piece of build state while keeping allocations,
// sizing the per-attribute tables to n.
func (e *Encoding) resetStorage(n int) {
	e.Sparse = false
	e.edgesDone = 0
	e.pairs = e.pairs[:0]
	e.Omega = e.Omega[:0]
	e.instIdx = e.instIdx[:0]
	for i := range e.bodyBlocks {
		e.bodyBlocks[i] = e.bodyBlocks[i][:0]
	}
	e.bodyCur = 0
	if e.cnf == nil {
		e.cnf = sat.NewCNF(0)
	} else {
		e.cnf.Reset()
	}
	if e.varOf == nil {
		e.varOf = make(map[pairKey]sat.Var)
	} else {
		clear(e.varOf)
	}
	if e.seenOrder == nil {
		e.seenOrder = make(map[OrderLit]bool)
	} else {
		clear(e.seenOrder)
	}
	if e.seenSigma == nil {
		e.seenSigma = make(map[string]*uint32)
	}
	if e.seenGamma == nil {
		e.seenGamma = make(map[string]*uint32)
	}
	e.seenEpoch++
	if e.seenEpoch == 0 || len(e.seenSigma) > seenKeyCap || len(e.seenGamma) > seenKeyCap {
		clear(e.seenSigma)
		clear(e.seenGamma)
		e.seenEpoch = 1
	}

	// Per-attribute tables: truncate or grow to n, clearing reused entries.
	if cap(e.doms) < n {
		e.doms = make([][]relation.Value, n)
		e.adomSz = make([]int, n)
		e.domIdx = make([]map[valKey]int, n)
		e.adomExtra = make([]map[int]bool, n)
		e.adomIdx = make([][]int, n)
		e.active = make([]map[int]bool, n)
		e.factEdges = make([]map[[2]int]bool, n)
		e.condVals = make([]map[int]bool, n)
	} else {
		e.doms = e.doms[:n]
		e.adomSz = e.adomSz[:n]
		e.domIdx = e.domIdx[:n]
		e.adomExtra = e.adomExtra[:n]
		e.adomIdx = e.adomIdx[:n]
		e.active = e.active[:n]
		e.factEdges = e.factEdges[:n]
		e.condVals = e.condVals[:n]
	}
	for a := 0; a < n; a++ {
		e.doms[a] = e.doms[a][:0]
		e.adomSz[a] = 0
		e.adomIdx[a] = e.adomIdx[a][:0]
		if e.domIdx[a] == nil {
			e.domIdx[a] = make(map[valKey]int)
		} else {
			clear(e.domIdx[a])
		}
		if e.adomExtra[a] == nil {
			e.adomExtra[a] = make(map[int]bool)
		} else {
			clear(e.adomExtra[a])
		}
		if e.active[a] == nil {
			e.active[a] = make(map[int]bool)
		} else {
			clear(e.active[a])
		}
		if e.factEdges[a] == nil {
			e.factEdges[a] = make(map[[2]int]bool)
		} else {
			clear(e.factEdges[a])
		}
		if e.condVals[a] == nil {
			e.condVals[a] = make(map[int]bool)
		} else {
			clear(e.condVals[a])
		}
	}
}

// emitCurrencyInstancesNaive instantiates over all ordered tuple pairs — the
// paper's literal algorithm; kept for ablation benchmarking.
func (e *Encoding) emitCurrencyInstancesNaive() {
	n := e.Spec.TI.Inst.Len()
	for ci, c := range e.Spec.Sigma {
		for t1 := 0; t1 < n; t1++ {
			for t2 := 0; t2 < n; t2++ {
				if t1 == t2 {
					continue
				}
				e.instantiatePair(ci, c, relation.TupleID(t1), relation.TupleID(t2))
			}
		}
	}
}

// CNF returns Φ(Se). The encoding retains ownership; callers who mutate the
// formula should Clone it first (EnsureLit may append asymmetry clauses).
func (e *Encoding) CNF() *sat.CNF { return e.cnf }

// Dom returns the value domain of attribute a: the Build-time active domain
// first (see ADomSize), then CFD constants not occurring in the data, then
// values appended by incremental extension.
func (e *Encoding) Dom(a relation.Attr) []relation.Value { return e.doms[a] }

// ADomSize returns the Build-time |adom(Ie.a)|; Dom(a)[:ADomSize(a)] is that
// prefix. Incremental extension can grow the active domain past it — loops
// over the current active domain must use ADomIndices / InADom instead.
func (e *Encoding) ADomSize(a relation.Attr) int { return e.adomSz[a] }

// ADomIndices returns the domain indices forming the current active domain
// of attribute a, in ascending order. The slice is owned by the encoding;
// callers must not mutate it.
func (e *Encoding) ADomIndices(a relation.Attr) []int { return e.adomIdx[a] }

// InADom reports whether domain index i of attribute a is in the current
// active domain (Build-time prefix or an extension-added value).
func (e *Encoding) InADom(a relation.Attr, i int) bool {
	return i < e.adomSz[a] || e.adomExtra[a][i]
}

// InstanceClauseIndex returns, for each instance of Omega (same order), the
// index of its clause in CNF().Clauses. Diagnose uses it to separate soft
// instance clauses from hard axioms without relying on emission order.
func (e *Encoding) InstanceClauseIndex() []int { return e.instIdx }

// ValueIndex resolves a value to its domain index for attribute a; ok is
// false if the value is not in the domain.
func (e *Encoding) ValueIndex(a relation.Attr, v relation.Value) (int, bool) {
	i, ok := e.domIdx[a][canonKey(v)]
	return i, ok
}

// NumVars returns the number of allocated order variables.
func (e *Encoding) NumVars() int { return len(e.pairs) }

// Pair maps a variable back to its order atom.
func (e *Encoding) Pair(v sat.Var) OrderLit {
	p := e.pairs[v]
	return OrderLit{Attr: p.attr, A1: p.a1, A2: p.a2}
}

// LitFor returns the positive literal for the atom, if it was allocated.
func (e *Encoding) LitFor(l OrderLit) (sat.Lit, bool) {
	v, ok := e.varOf[pairKey{l.Attr, l.A1, l.A2}]
	if !ok {
		return 0, false
	}
	return sat.PosLit(v), true
}

// EnsureLit returns the positive literal for the atom, allocating the
// variable (and the reverse-direction variable plus their asymmetry clause)
// if needed. Appending to the CNF after Build is sound: new clauses only
// constrain new variables.
func (e *Encoding) EnsureLit(l OrderLit) sat.Lit {
	k := pairKey{l.Attr, l.A1, l.A2}
	if v, ok := e.varOf[k]; ok {
		return sat.PosLit(v)
	}
	rk := pairKey{l.Attr, l.A2, l.A1}
	v := e.newVar(k)
	if rv, ok := e.varOf[rk]; ok {
		e.cnf.Add(sat.NegLit(v), sat.NegLit(rv))
	} else {
		rv = e.newVar(rk)
		e.cnf.Add(sat.NegLit(v), sat.NegLit(rv))
	}
	return sat.PosLit(v)
}

func (e *Encoding) newVar(k pairKey) sat.Var {
	v := sat.Var(len(e.pairs))
	e.varOf[k] = v
	e.pairs = append(e.pairs, k)
	if e.cnf.NVars < len(e.pairs) {
		e.cnf.NVars = len(e.pairs)
	}
	return v
}

// litRaw allocates without asymmetry bookkeeping; used during Build, which
// emits asymmetry axioms in one sweep afterwards.
func (e *Encoding) litRaw(attr relation.Attr, a1, a2 int) sat.Lit {
	k := pairKey{attr, a1, a2}
	v, ok := e.varOf[k]
	if !ok {
		v = e.newVar(k)
	}
	return sat.PosLit(v)
}

// addDomValue registers v in attribute a's domain and returns its index.
func (e *Encoding) addDomValue(a relation.Attr, v relation.Value) int {
	k := canonKey(v)
	if i, ok := e.domIdx[a][k]; ok {
		return i
	}
	i := len(e.doms[a])
	e.doms[a] = append(e.doms[a], v)
	e.domIdx[a][k] = i
	return i
}

func (e *Encoding) buildDomains() {
	n := e.Schema.Len()
	in := e.Spec.TI.Inst
	nT := in.Len()
	if cap(e.tixData) < nT*n {
		e.tixData = make([]int32, 0, nT*n)
	} else {
		e.tixData = e.tixData[:0]
	}
	e.tix = e.tix[:0]
	for t := 0; t < nT; t++ {
		tu := in.Tuple(relation.TupleID(t))
		start := len(e.tixData)
		for a := 0; a < n; a++ {
			e.tixData = append(e.tixData, int32(e.addDomValue(relation.Attr(a), tu[a])))
		}
		e.tix = append(e.tix, e.tixData[start:len(e.tixData):len(e.tixData)])
	}
	for a := 0; a < n; a++ {
		e.adomSz[a] = len(e.doms[a])
	}
	// CFD constants extend the domains past the active-domain prefix.
	for _, cfd := range e.Spec.Gamma {
		for i, a := range cfd.X {
			e.addDomValue(a, cfd.PX[i])
		}
		e.addDomValue(cfd.B, cfd.VB)
	}
	for a := 0; a < n; a++ {
		idx := e.adomIdx[a][:0]
		for i := 0; i < e.adomSz[a]; i++ {
			idx = append(idx, i)
		}
		e.adomIdx[a] = idx
	}
}

// joinADom adds domain index i of attribute a to the active domain; no-op if
// already a member.
func (e *Encoding) joinADom(a relation.Attr, i int) {
	if e.InADom(a, i) {
		return
	}
	e.adomExtra[a][i] = true
	e.adomIdx[a] = append(e.adomIdx[a], i)
	sort.Ints(e.adomIdx[a])
}

// instKey canonicalizes an instance constraint for dedup: the body sorted,
// then the head, varint-encoded into the reused key buffer. The returned
// slice is only valid until the next key is built.
func (e *Encoding) instKey(body []OrderLit, head OrderLit) []byte {
	sb := append(e.sortBuf[:0], body...)
	e.sortBuf = sb
	for i := 1; i < len(sb); i++ {
		for j := i; j > 0 && orderLitLess(sb[j], sb[j-1]); j-- {
			sb[j], sb[j-1] = sb[j-1], sb[j]
		}
	}
	buf := binary.AppendUvarint(e.keyBuf[:0], uint64(len(sb)))
	for _, l := range sb {
		buf = appendOrderLit(buf, l)
	}
	buf = appendOrderLit(buf, head)
	e.keyBuf = buf
	return buf
}

func orderLitLess(a, b OrderLit) bool {
	if a.Attr != b.Attr {
		return a.Attr < b.Attr
	}
	if a.A1 != b.A1 {
		return a.A1 < b.A1
	}
	return a.A2 < b.A2
}

func appendOrderLit(buf []byte, l OrderLit) []byte {
	buf = binary.AppendUvarint(buf, uint64(l.Attr))
	buf = binary.AppendUvarint(buf, uint64(l.A1))
	return binary.AppendUvarint(buf, uint64(l.A2))
}

// allocBody copies a body into the instance-body arena; empty bodies stay
// nil (facts).
func (e *Encoding) allocBody(body []OrderLit) []OrderLit {
	n := len(body)
	if n == 0 {
		return nil
	}
	for e.bodyCur < len(e.bodyBlocks) {
		b := e.bodyBlocks[e.bodyCur]
		if cap(b)-len(b) >= n {
			cl := append(b[len(b):len(b):cap(b)], body...)
			e.bodyBlocks[e.bodyCur] = b[:len(b)+n]
			return cl[:n:n]
		}
		e.bodyCur++
	}
	size := 1 << 12
	if n > size {
		size = n
	}
	block := make([]OrderLit, 0, size)
	cl := append(block, body...)
	e.bodyBlocks = append(e.bodyBlocks, cl)
	e.bodyCur = len(e.bodyBlocks) - 1
	return cl[:n:n]
}

// addInstance records the instance in Ω and emits its clause, deduplicating
// per source kind. Order facts (empty body) dedup on the head atom alone;
// Σ and Γ instances dedup on a binary body+head key built in scratch.
func (e *Encoding) addInstance(body []OrderLit, head OrderLit, src Source) {
	switch src.Kind {
	case SrcOrder:
		if e.seenOrder[head] {
			return
		}
		e.seenOrder[head] = true
	default:
		seen := e.seenSigma
		if src.Kind == SrcCFD {
			seen = e.seenGamma
		}
		k := e.instKey(body, head)
		if p, ok := seen[string(k)]; ok {
			if *p == e.seenEpoch {
				return // duplicate within this build
			}
			*p = e.seenEpoch // key known from an earlier build: revive in place
		} else {
			ep := e.seenEpoch
			seen[string(k)] = &ep
		}
	}
	e.Omega = append(e.Omega, Instance{Body: e.allocBody(body), Head: head, Src: src})
	cl := e.litBuf[:0]
	for _, l := range body {
		cl = append(cl, e.litRaw(l.Attr, l.A1, l.A2).Not())
	}
	cl = append(cl, e.litRaw(head.Attr, head.A1, head.A2))
	e.litBuf = cl
	e.instIdx = append(e.instIdx, len(e.cnf.Clauses))
	e.cnf.Add(cl...)
}

// emitOrderFacts encodes the currency orders of It (Section V-A (1)(a)):
// explicit edges plus the implicit null-lowest edges.
func (e *Encoding) emitOrderFacts() {
	e.emitEdgeFacts()
	// Null ranks lowest: null ≺v a for every non-null active-domain value.
	for a := 0; a < e.Schema.Len(); a++ {
		attr := relation.Attr(a)
		ni, ok := e.domIdx[a][valKey{}]
		if !ok || !e.InADom(attr, ni) {
			continue // no null among the data values
		}
		for _, i := range e.adomIdx[a] {
			if i == ni {
				continue
			}
			e.addInstance(nil, OrderLit{attr, ni, i}, Source{SrcOrder, -1})
		}
	}
}

// emitEdgeFacts encodes the explicit edges not yet processed, advancing
// edgesDone so incremental extension only sees the new ones.
func (e *Encoding) emitEdgeFacts() {
	in := e.Spec.TI.Inst
	edges := e.Spec.TI.Edges
	for _, edge := range edges[e.edgesDone:] {
		v1 := in.Value(edge.T1, edge.Attr)
		v2 := in.Value(edge.T2, edge.Attr)
		if relation.Equal(v1, v2) {
			continue // t1 ≼ t2 with equal values carries no value-level info
		}
		i1, _ := e.ValueIndex(edge.Attr, v1)
		i2, _ := e.ValueIndex(edge.Attr, v2)
		e.addInstance(nil, OrderLit{edge.Attr, i1, i2}, Source{SrcOrder, -1})
	}
	e.edgesDone = len(edges)
}

// refAttrsOf returns the attributes a currency constraint reads or writes.
func refAttrsOf(c constraint.Currency) []relation.Attr {
	set := map[relation.Attr]bool{c.Target: true}
	for _, p := range c.Body {
		switch p.Kind {
		case constraint.PredCurrency:
			set[p.Attr] = true
		case constraint.PredCompare:
			if !p.L.Const {
				set[p.L.Attr] = true
			}
			if !p.R.Const {
				set[p.R.Attr] = true
			}
		}
	}
	out := make([]relation.Attr, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// emitCurrencyInstances instantiates each currency constraint over all tuple
// pairs (Section V-A (2)), grouping tuples by their projection onto the
// referenced attributes: two tuples with equal projections induce identical
// instance constraints, so one representative per projection suffices.
// Projection keys are built from domain indices (no value hashing), and the
// group index is reused across constraints and builds.
func (e *Encoding) emitCurrencyInstances() {
	nT := e.Spec.TI.Inst.Len()
	for ci, c := range e.Spec.Sigma {
		attrs := e.refAttrs[ci]
		if e.projIdx == nil {
			e.projIdx = make(map[string]int)
		} else {
			clear(e.projIdx)
		}
		reps := e.projReps[:0]
		cnt := e.projCnt[:0]
		for t := 0; t < nT; t++ {
			row := e.tix[t]
			buf := e.keyBuf[:0]
			for _, a := range attrs {
				buf = binary.AppendUvarint(buf, uint64(row[a]))
			}
			e.keyBuf = buf
			if pi, ok := e.projIdx[string(buf)]; ok {
				cnt[pi]++
			} else {
				e.projIdx[string(buf)] = len(reps)
				reps = append(reps, t)
				cnt = append(cnt, 1)
			}
		}
		e.projReps, e.projCnt = reps, cnt
		for i := range reps {
			for j := range reps {
				if i == j && cnt[i] < 2 {
					continue // needs two distinct tuples sharing the projection
				}
				e.instantiatePair(ci, c, relation.TupleID(reps[i]), relation.TupleID(reps[j]))
			}
		}
	}
}

// instantiatePair emits ins(ω, s1, s2) → s1[Ar] ≺v s2[Ar] if the instance is
// non-vacuous. Currency-predicate atoms never involve null: a missing value
// carries no order information through ≺-predicates (it ranks lowest by
// convention, but that knowledge lives in the null-lowest facts, not in
// constraint firing). Only comparison predicates treat null < k. Without
// this rule, the framework's user-input tuple — null in every unanswered
// attribute — would fire constraint bodies via null-lowest facts and rank
// its own validated values below stale data (see DESIGN.md §5).
//
// Value equality tests run on domain indices: the domain interning collapses
// exactly the values relation.Equal identifies.
func (e *Encoding) instantiatePair(ci int, c constraint.Currency, t1, t2 relation.TupleID) {
	in := e.Spec.TI.Inst
	s1, s2 := in.Tuple(t1), in.Tuple(t2)
	x1, x2 := e.tix[t1], e.tix[t2]
	if x1[c.Target] == x2[c.Target] {
		return // consequent trivially satisfiable at the tuple level
	}
	if s1[c.Target].IsNull() || s2[c.Target].IsNull() {
		return // null never appears in a currency atom
	}
	body := e.bodyBuf[:0]
	for _, p := range c.Body {
		switch p.Kind {
		case constraint.PredCompare:
			if p.L.Resolve(s1, s2).IsNull() || p.R.Resolve(s1, s2).IsNull() {
				e.bodyBuf = body
				return // missing values never fire constraints
			}
			if !p.EvalCompare(s1, s2) {
				e.bodyBuf = body
				return // statically false conjunct: instance vacuous
			}
		case constraint.PredCurrency:
			if x1[p.Attr] == x2[p.Attr] {
				e.bodyBuf = body
				return // strict order between equal values is impossible
			}
			if s1[p.Attr].IsNull() || s2[p.Attr].IsNull() {
				e.bodyBuf = body
				return // null never appears in a currency atom
			}
			body = append(body, OrderLit{p.Attr, int(x1[p.Attr]), int(x2[p.Attr])})
		}
	}
	e.bodyBuf = body
	e.addInstance(body, OrderLit{c.Target, int(x1[c.Target]), int(x2[c.Target])},
		Source{SrcCurrency, ci})
}

// emitCFDInstances encodes each constant CFD (Section V-A (3)).
func (e *Encoding) emitCFDInstances() {
	for gi, cfd := range e.Spec.Gamma {
		bi, _ := e.ValueIndex(cfd.B, cfd.VB)
		omegaX := e.cfdBody(cfd)
		for _, i := range e.adomIdx[cfd.B] {
			if i == bi {
				continue
			}
			e.addInstance(omegaX, OrderLit{cfd.B, i, bi}, Source{SrcCFD, gi})
		}
	}
}

// cfdBody builds ωX for a constant CFD: every other active-domain X-value
// sits below the pattern. The returned slice is scratch, valid until the
// next cfdBody call.
func (e *Encoding) cfdBody(cfd constraint.CFD) []OrderLit {
	omegaX := e.cfdBuf[:0]
	for xi, a := range cfd.X {
		pi, _ := e.ValueIndex(a, cfd.PX[xi])
		for _, i := range e.adomIdx[a] {
			if i == pi {
				continue
			}
			omegaX = append(omegaX, OrderLit{a, i, pi})
		}
	}
	e.cfdBuf = omegaX
	return omegaX
}

// emitAxioms adds asymmetry and transitivity (Section V-A (1)(b)(c)) over
// each attribute's active values — the values actually mentioned by some
// fact or instance constraint. Unmentioned values are unconstrained and can
// be inserted anywhere in a completion, so axioms about them change nothing.
// Transitivity is carried by order groups, one per attribute: CNF group a
// is attribute a's.
func (e *Encoding) emitAxioms(transCap int) {
	n := e.Schema.Len()
	e.cnf.Groups = slices.Grow(e.cnf.Groups, n)
	for a := 0; a < n; a++ {
		e.cnf.NewGroup()
	}
	mark := func(l OrderLit, unit bool) {
		e.active[l.Attr][l.A1] = true
		e.active[l.Attr][l.A2] = true
		if !unit {
			e.condVals[l.Attr][l.A1] = true
			e.condVals[l.Attr][l.A2] = true
		}
	}
	for _, inst := range e.Omega {
		unit := len(inst.Body) == 0
		mark(inst.Head, unit)
		if unit {
			e.factEdges[inst.Head.Attr][[2]int{inst.Head.A1, inst.Head.A2}] = true
		}
		for _, l := range inst.Body {
			mark(l, false)
		}
	}

	for a := 0; a < n; a++ {
		attr := relation.Attr(a)
		vals := e.sortedKeysScratch(e.active[a])
		if len(vals) <= transCap {
			e.emitFullAxioms(attr, vals)
			continue
		}
		e.Sparse = true
		e.emitSparseAxioms(attr, vals, e.factEdges[a], sortedKeys(e.condVals[a]), transCap)
	}
}

// sortedKeysScratch is sortedKeys into the encoding's reused int buffer;
// the result is valid until the next call.
func (e *Encoding) sortedKeysScratch(m map[int]bool) []int {
	out := e.intBuf[:0]
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	e.intBuf = out
	return out
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// emitFullAxioms adds pairwise asymmetry over the given value indices and
// makes them the members of the attribute's order group.
func (e *Encoding) emitFullAxioms(attr relation.Attr, vals []int) {
	e.emitAxiomsOver(attr, nil, vals)
}

// emitSparseAxioms handles attributes with large active-value sets: the
// transitive closure of the unit facts is materialized as additional unit
// clauses (with a direct contradiction emitted on a fact cycle), full
// axioms are restricted to the values occurring in conditional clauses, and
// binary bridge clauses connect closed facts to those conditional values.
func (e *Encoding) emitSparseAxioms(attr relation.Attr, vals []int, facts map[[2]int]bool, cond []int, transCap int) {
	// Compact closure over the fact-touched values.
	touched := map[int]int{}
	var order []int
	idx := func(v int) int {
		if i, ok := touched[v]; ok {
			return i
		}
		i := len(order)
		touched[v] = i
		order = append(order, v)
		return i
	}
	// Facts in sorted order, so the closure's variable numbering and clause
	// order do not depend on map iteration.
	sorted := make([][2]int, 0, len(facts))
	for f := range facts {
		sorted = append(sorted, f)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i][0] != sorted[j][0] {
			return sorted[i][0] < sorted[j][0]
		}
		return sorted[i][1] < sorted[j][1]
	})
	type edge struct{ a, b int }
	var edges []edge
	for _, f := range sorted {
		edges = append(edges, edge{idx(f[0]), idx(f[1])})
	}
	m := len(order)
	reach := make([]bool, m*m)
	for _, ed := range edges {
		reach[ed.a*m+ed.b] = true
	}
	for k := 0; k < m; k++ {
		for i := 0; i < m; i++ {
			if !reach[i*m+k] {
				continue
			}
			for j := 0; j < m; j++ {
				if reach[k*m+j] {
					reach[i*m+j] = true
				}
			}
		}
	}
	// Emit closed facts; a cycle yields an immediate contradiction.
	for i := 0; i < m; i++ {
		if reach[i*m+i] {
			x := e.litRaw(attr, order[i], order[(i+1)%m])
			e.cnf.Add(x)
			e.cnf.Add(x.Not())
			return
		}
		for j := 0; j < m; j++ {
			if i != j && reach[i*m+j] {
				e.cnf.Add(e.litRaw(attr, order[i], order[j]))
				// Asymmetry with the reverse direction.
				e.cnf.Add(e.litRaw(attr, order[j], order[i]).Not())
			}
		}
	}
	// Full axioms over conditional values (cap as a final safety net).
	if len(cond) > transCap {
		cond = cond[:transCap]
	}
	e.emitFullAxioms(attr, cond)
	// Bridges: for each closed fact a≺b and conditional value c:
	// b≺c ⇒ a≺c and c≺a ⇒ c≺b.
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if i == j || !reach[i*m+j] {
				continue
			}
			a, b := order[i], order[j]
			for _, c := range cond {
				if c == a || c == b {
					continue
				}
				e.cnf.Add(e.litRaw(attr, b, c).Not(), e.litRaw(attr, a, c))
				e.cnf.Add(e.litRaw(attr, c, a).Not(), e.litRaw(attr, c, b))
			}
		}
	}
}

// ExtendAnswers applies the framework's Se ⊕ Ot step for user-validated
// true values to the encoding in place: the specification is extended
// (Spec.Extend appends the user tuple t_o and its order edges), and the new
// instance constraints, facts and axioms are appended to Ω and Φ without
// touching any existing clause. Callers then load only the clause suffix
// into an incremental solver.
//
// The delta comprises exactly what a fresh Build of the extended
// specification would add: order-fact units for the new edges, null-lowest
// facts for values joining an attribute's active domain, currency instances
// pairing every existing tuple with t_o, CFD instances whose head ranges
// over the newly joined values, and asymmetry clauses and order-group joins
// for the newly active values.
//
// It returns false when the extension is not expressible as a monotone
// clause addition and the caller must rebuild via Build(e.Spec, opts):
//   - a value joins the active domain of an attribute on a CFD left-hand
//     side with a differing pattern value (ωX of already-emitted instances
//     would weaken, which clause addition cannot express),
//   - the encoding used the sparse transitivity path, or
//   - a newly active value would push an attribute past the transitivity
//     cap into the sparse regime.
//
// On a false return e.Spec is already the extended specification but the
// formula is stale; the encoding must be discarded.
func (e *Encoding) ExtendAnswers(answers map[relation.Attr]relation.Value) bool {
	if len(answers) == 0 {
		return true
	}
	e.Spec = e.Spec.Extend(answers)
	return e.extendTuples(1)
}

// ExtendRows applies the change-data-capture step Se ⊕ rows to the encoding
// in place: the specification gains the appended data tuples (and any new
// order edges, which may reference them), and the corresponding instance
// constraints, facts and axioms are appended to Ω and Φ without touching
// any existing clause — the same monotone append path as ExtendAnswers,
// generalized to whole tuples. The same fallback conditions apply (see
// ExtendAnswers): on a false return e.Spec already carries the extension
// but the formula is stale and the encoding must be rebuilt.
func (e *Encoding) ExtendRows(rows []relation.Tuple, edges []model.OrderEdge) bool {
	if len(rows) == 0 && len(edges) == 0 {
		return true
	}
	e.Spec = e.Spec.ExtendRows(rows, edges)
	return e.extendTuples(len(rows))
}

// extendTuples appends the formula delta for the last k tuples of the
// (already extended) specification plus any not-yet-emitted order edges.
// It returns false when the delta is not monotone (see ExtendAnswers).
func (e *Encoding) extendTuples(k int) bool {
	if e.Sparse {
		return false
	}
	in := e.Spec.TI.Inst
	nT := in.Len()
	first := nT - k
	n := e.Schema.Len()

	// Pre-check (pure): a non-null value joining adom(a) weakens a CFD's ωX
	// when a ∈ X and the value differs from that CFD's pattern on a —
	// already-emitted clauses would need an extra body conjunct, which
	// clause addition cannot express. New nulls join adom too, but the
	// conjunct they add to ωX is null ≺ pattern, a null-lowest fact we emit
	// as a unit below, so the stronger already-emitted clause stays
	// equivalent in context.
	for t := first; t < nT; t++ {
		to := in.Tuple(relation.TupleID(t))
		for a := 0; a < n; a++ {
			attr := relation.Attr(a)
			v := to[a]
			if v.IsNull() {
				continue
			}
			idx, known := e.ValueIndex(attr, v)
			if known && e.InADom(attr, idx) {
				continue
			}
			for _, cfd := range e.Spec.Gamma {
				for xi, xa := range cfd.X {
					if xa == attr && !relation.Equal(v, cfd.PX[xi]) {
						return false
					}
				}
			}
		}
	}

	// Mutation phase: register each appended tuple's values in the domains
	// and give it a domain-index row.
	newJoin := make([]map[int]bool, n)
	for t := first; t < nT; t++ {
		to := in.Tuple(relation.TupleID(t))
		rowStart := len(e.tixData)
		for a := 0; a < n; a++ {
			attr := relation.Attr(a)
			idx := e.addDomValue(attr, to[a])
			e.tixData = append(e.tixData, int32(idx))
			if !e.InADom(attr, idx) {
				e.joinADom(attr, idx)
				if newJoin[a] == nil {
					newJoin[a] = make(map[int]bool)
				}
				newJoin[a][idx] = true
			}
		}
		e.tix = append(e.tix, e.tixData[rowStart:len(e.tixData):len(e.tixData)])
	}

	omegaMark := len(e.Omega)

	// Null-lowest facts for attributes whose active domain changed.
	for a := 0; a < n; a++ {
		attr := relation.Attr(a)
		ni, ok := e.domIdx[a][valKey{}]
		if !ok || !e.InADom(attr, ni) {
			continue
		}
		if newJoin[a][ni] {
			// Null itself joined: it ranks below every other domain value.
			// Covering the full domain — not just adom, as Build does — also
			// discharges the null ≺ pattern conjunct that a re-encode would
			// add to CFD bodies over this attribute (see the pre-check); the
			// extra units are sound, null ranks lowest in every completion.
			for i := range e.doms[a] {
				if i != ni {
					e.addInstance(nil, OrderLit{attr, ni, i}, Source{SrcOrder, -1})
				}
			}
		} else {
			for _, i := range e.sortedKeysScratch(newJoin[a]) {
				if i != ni {
					e.addInstance(nil, OrderLit{attr, ni, i}, Source{SrcOrder, -1})
				}
			}
		}
	}

	// Order facts from the new edges t ≼_A t_o.
	e.emitEdgeFacts()

	// Currency instances pairing each appended tuple with every tuple
	// before it (both directions) — covering old×new and new×new pairs.
	// Self-pairs and pairs among pre-existing tuples are already covered
	// (or vacuous).
	for ci, c := range e.Spec.Sigma {
		for nt := first; nt < nT; nt++ {
			ntID := relation.TupleID(nt)
			for t := 0; t < nt; t++ {
				e.instantiatePair(ci, c, relation.TupleID(t), ntID)
				e.instantiatePair(ci, c, ntID, relation.TupleID(t))
			}
		}
	}

	// CFD instances whose head ranges over newly joined values of B. ωX uses
	// the current active domains; the pre-check guarantees they only grew by
	// pattern-equal values, so existing instances' bodies are unaffected.
	for gi, cfd := range e.Spec.Gamma {
		if len(newJoin[cfd.B]) == 0 {
			continue
		}
		bi, _ := e.ValueIndex(cfd.B, cfd.VB)
		omegaX := e.cfdBody(cfd)
		for _, i := range e.sortedKeysScratch(newJoin[cfd.B]) {
			if i == bi {
				continue
			}
			e.addInstance(omegaX, OrderLit{cfd.B, i, bi}, Source{SrcCFD, gi})
		}
	}

	// Values first mentioned by the delta instances need axiom coverage.
	newActive := make([]map[int]bool, n)
	for a := range newActive {
		newActive[a] = make(map[int]bool)
	}
	markNew := func(l OrderLit) {
		if !e.active[l.Attr][l.A1] {
			newActive[l.Attr][l.A1] = true
		}
		if !e.active[l.Attr][l.A2] {
			newActive[l.Attr][l.A2] = true
		}
	}
	for _, inst := range e.Omega[omegaMark:] {
		markNew(inst.Head)
		for _, l := range inst.Body {
			markNew(l)
		}
	}
	transCap := e.opts.cap()
	for a := 0; a < n; a++ {
		if len(newActive[a]) > 0 && len(e.active[a])+len(newActive[a]) > transCap {
			return false // would cross into the sparse regime: rebuild
		}
	}
	for a := 0; a < n; a++ {
		if len(newActive[a]) == 0 {
			continue
		}
		e.emitAxiomsOver(relation.Attr(a), sortedKeys(e.active[a]), sortedKeys(newActive[a]))
		for i := range newActive[a] {
			e.active[a][i] = true
		}
	}
	return true
}

// emitAxiomsOver extends attribute attr's strict-order axioms to newVals:
// an asymmetry clause for every unordered pair over old ∪ newVals that
// involves a new value, and the new values join the attribute's order
// group, which stands for transitivity over every ordered triple of its
// members. With an empty old set this is the full axiom emission; with the
// attribute's previously covered values it is exactly the delta. Both
// inputs are sorted and disjoint.
//
// Values are addressed by their position in the merged list: the asymmetry
// loop allocates every pair variable in the order a per-atom lookup would
// and records it in a k×k scratch matrix, from which the joins read.
func (e *Encoding) emitAxiomsOver(attr relation.Attr, old, newVals []int) {
	all, isNew := e.axAll[:0], e.axNew[:0]
	for i, j := 0, 0; i < len(old) || j < len(newVals); {
		if j == len(newVals) || (i < len(old) && old[i] < newVals[j]) {
			all, isNew = append(all, old[i]), append(isNew, false)
			i++
		} else {
			all, isNew = append(all, newVals[j]), append(isNew, true)
			j++
		}
	}
	e.axAll, e.axNew = all, isNew
	k := len(all)
	if cap(e.axLits) < k*k {
		e.axLits = make([]sat.Lit, k*k)
	}
	lits := e.axLits[:k*k]
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if !isNew[i] && !isNew[j] {
				continue
			}
			x, y := e.litRaw(attr, all[i], all[j]), e.litRaw(attr, all[j], all[i])
			lits[i*k+j], lits[j*k+i] = x, y
			e.cnf.Add(x.Not(), y.Not())
		}
	}
	// New values join group attr after its members, each with its pairs
	// to every earlier member. The members' values are read back from
	// their pair variables in join order: member 0 is the lower end of pair
	// (0,1), member m the upper end of pair (0,m); a lone member is the one
	// old value.
	gr := &e.cnf.Groups[attr]
	pos := e.axPos[:0]
	for m := 0; m < gr.Members; m++ {
		v := old[0]
		if m == 0 && gr.Members > 1 {
			v = e.pairs[gr.Pair(0, 1).Var()].a1
		} else if m > 0 {
			v = e.pairs[gr.Pair(0, m).Var()].a2
		}
		pos = append(pos, sort.SearchInts(all, v))
	}
	for m := range all {
		if !isNew[m] {
			continue
		}
		pairs := e.litBuf[:0]
		for _, i := range pos {
			pairs = append(pairs, lits[i*k+m], lits[m*k+i])
		}
		e.litBuf = pairs
		e.cnf.Join(int(attr), pairs...)
		pos = append(pos, m)
	}
	e.axPos = pos
}

// FormatLit renders an order atom for diagnostics: "a1 <[attr] a2".
func (e *Encoding) FormatLit(l OrderLit) string {
	return fmt.Sprintf("%s <[%s] %s",
		e.doms[l.Attr][l.A1], e.Schema.Name(l.Attr), e.doms[l.Attr][l.A2])
}

package encode

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sort"
	"testing"

	"conflictres/internal/datagen"
	"conflictres/internal/fixtures"
	"conflictres/internal/model"
	"conflictres/internal/relation"
	"conflictres/internal/sat"
)

// goldenDigests pins Φ(Se) and Ω(Se) byte for byte, transitivity apart:
// variable count, every clause's literals in order, every instance (body,
// head, source) and the instance-to-clause index. goldenTriples pins the
// transitivity clauses the order groups stand for, as a sorted set per
// encoding state. Any encoder change that is meant to be a pure speed-up
// must leave both untouched; a change that legitimately alters the formula
// must say so and re-derive them (the failure message prints the new
// value).
//
// Both were first derived from the encoder that still emitted transitivity
// as clauses, with those clauses filtered out of the first digest and
// collected into the second, so they also pin that groups carry exactly
// the triples that encoder emitted.
//
// All twenty were re-derived once the rule-set index began dropping dead
// CFDs (a CFD whose X constant is neither active nor the head of a live
// CFD): their constants leave the domains, and their instances, asymmetry
// clauses and order-group members go with them.
//   - paper/*: George's ψ1 (AC = 213) is dead; Edith's formula is unchanged.
//   - person/build, person/skeleton: each entity holds 1–5 of the 24 AC
//     values, so the other AC → city CFDs are dead.
//   - person/extend: the same, and rows now make CFDs live mid-schedule;
//     the pre-check reads live CFDs only, so 44 of 60 schedules stay
//     incremental (43 before).
//   - person/sparse-cap3: dead constants no longer count towards the cap,
//     so the sparse closure and conditional groups shrink.
//   - nba/build: arena and team-name CFDs of other franchises are dead; the
//     same 2 of 12 entities stay sparse.
//   - nba/extend: the same; 8 of 12 schedules stay incremental (3 before).
//   - career/skeleton: dom(affiliation) falls from 174 values to the 2–3
//     active ones, so all 8 entities leave the sparse path.
var goldenDigests = map[string]string{
	"paper/build":          "84da3c7c5e1ba0783562e83532d4e639d316668e5184a13896a41e9dd10ded7d",
	"paper/skeleton":       "84da3c7c5e1ba0783562e83532d4e639d316668e5184a13896a41e9dd10ded7d",
	"paper/extend-answers": "294a51e88fd8f827c6d9821ba2948f8d0079220988ed19fc01644d1dccc83ef8",
	"person/build":         "8299e7c01c298d4655076fe35e7cc86181f6dead07d708b5bcc4b9abe0e484e1",
	"person/skeleton":      "8299e7c01c298d4655076fe35e7cc86181f6dead07d708b5bcc4b9abe0e484e1",
	"person/extend":        "b1886c7eb12519038e512d7f4262e11cb8f5eb6c2a446f97bdb896869154a7a6",
	"person/sparse-cap3":   "a1bb9bbd02c2e8e86ac6d7f1df75869e7019a5606e40add2bb0e17ab35cc9d47",
	"nba/build":            "a05680f31cbb2a1d0180991fdeea5744e157ff5d19ec3f634ded5b48e386a41e",
	"nba/extend":           "a956738be6348eac4ab33741d8500f318349a634428366bfe08ec72a6e3184c7",
	"career/skeleton":      "94b7f9fe5dca86a1fd8ba6624d4c14b01ad2df395d49e8d422fd7ba5ae046528",
}

var goldenTriples = map[string]string{
	"paper/build":          "fbaecbbf83578e6bd88f74d8c5e70ba41af21470b84fe03217731e792304cdff",
	"paper/skeleton":       "fbaecbbf83578e6bd88f74d8c5e70ba41af21470b84fe03217731e792304cdff",
	"paper/extend-answers": "ed9d47fef3dc50952a7ff77bbfff0e829981bf21e1c2f8dbbfd171467aede132",
	"person/build":         "54b8dec0476fe5e8a71b564d8d5d1bbeddad50022f6a33dee5c8d4f642612345",
	"person/skeleton":      "54b8dec0476fe5e8a71b564d8d5d1bbeddad50022f6a33dee5c8d4f642612345",
	"person/extend":        "10a5ebe6fe877a72f5886e211170c435c0835431ff345b00b073b0ccfb1a30be",
	"person/sparse-cap3":   "3f9c084aa9067a5022cdd872c9bcdaec6173a7defe78514671e732c1dfb643e8",
	"nba/build":            "02f0d7e5b3030611fd233407186730cfc30c3bc47dbdae3beea2e898c9176304",
	"nba/extend":           "86b41ec3553c8b4e210a196f5f7adc6c7cab39c6fb67644aef1dc1f020812e6a",
	"career/skeleton":      "59287ffcb42a8f9e05b90daf73004e42ad70b6623a0d96db703ff53f92dc0863",
}

// axiomView splits an encoding's formula into its clauses (with the
// instance-to-clause index into them) and the sorted transitivity clauses
// of its order groups.
func axiomView(e *Encoding) (clauses [][]sat.Lit, instIdx []int, triples [][3]sat.Lit) {
	cnf := e.CNF()
	x := cnf.Expand()
	for _, cl := range x.Clauses[len(cnf.Clauses):] {
		triples = append(triples, [3]sat.Lit{cl[0], cl[1], cl[2]})
	}
	sort.Slice(triples, func(i, j int) bool {
		a, b := triples[i], triples[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	return cnf.Clauses, e.InstanceClauseIndex(), triples
}

// numClauses is the clause count of axiomView, where extension suffixes
// start.
func numClauses(e *Encoding) int {
	cl, _, _ := axiomView(e)
	return len(cl)
}

// formulaDigest folds encodings into two SHA-256 sums: the formula without
// transitivity, and the transitivity triples. Values are staged in a buffer
// and hashed once per encoding, which keeps the test fast under -race.
type formulaDigest struct {
	h, t hash.Hash
	buf  []byte
}

func newFormulaDigest() *formulaDigest { return &formulaDigest{h: sha256.New(), t: sha256.New()} }

// int appends v as 4 bytes: every digested value (counts, literals,
// domain indices, the -1 source index) fits in 32 bits.
func (d *formulaDigest) int(v int) {
	d.buf = binary.LittleEndian.AppendUint32(d.buf, uint32(int32(v)))
}

func (d *formulaDigest) flush(h hash.Hash) {
	h.Write(d.buf)
	d.buf = d.buf[:0]
}

func (d *formulaDigest) lit(l OrderLit) {
	d.int(int(l.Attr))
	d.int(l.A1)
	d.int(l.A2)
}

func (d *formulaDigest) bool(b bool) {
	if b {
		d.int(1)
	} else {
		d.int(0)
	}
}

func (d *formulaDigest) encoding(e *Encoding) { d.suffix(e, 0, 0) }

// suffix digests the clauses from index clauseFrom and the instances from
// index omegaFrom on, plus the variable and total counts, into the formula
// sum, and the whole current triple set into the triple sum. Extension only
// appends, so digesting each step's suffix pins the whole formula.
func (d *formulaDigest) suffix(e *Encoding, clauseFrom, omegaFrom int) {
	clauses, idx, triples := axiomView(e)
	d.int(e.NumVars())
	d.int(e.CNF().NVars)
	d.int(len(clauses))
	for _, cl := range clauses[clauseFrom:] {
		d.int(len(cl))
		for _, l := range cl {
			d.int(int(l))
		}
	}
	d.int(len(e.Omega))
	for i, inst := range e.Omega[omegaFrom:] {
		d.int(len(inst.Body))
		for _, l := range inst.Body {
			d.lit(l)
		}
		d.lit(inst.Head)
		d.int(int(inst.Src.Kind))
		d.int(inst.Src.Index)
		d.int(idx[omegaFrom+i])
	}
	d.bool(e.Sparse)
	d.flush(d.h)
	d.int(len(triples))
	for _, tr := range triples {
		for _, l := range tr {
			d.int(int(l))
		}
	}
	d.flush(d.t)
}

func (d *formulaDigest) sum() (formula, triples string) {
	d.flush(d.h)
	return hex.EncodeToString(d.h.Sum(nil)), hex.EncodeToString(d.t.Sum(nil))
}

// goldenPerson is the fleet benchmark's Person shape (ACPool 24, 6×8 status
// and job chains) at 2–40 tuples per entity.
func goldenPerson() *datagen.Dataset {
	return datagen.Person(datagen.PersonConfig{
		Entities: 60, MinTuples: 2, MaxTuples: 40, Seed: 7,
		ACPool: 24, StatusChains: 6, StatusChainLen: 8,
		JobChains: 6, JobChainLen: 8,
	})
}

// splitSpec cuts spec after its first k tuples: the prefix spec carries the
// edges among those tuples, and the remaining rows and edges are returned as
// the delta an ExtendRows call appends.
func splitSpec(spec *model.Spec, k int) (*model.Spec, []relation.Tuple, []model.OrderEdge) {
	in := spec.TI.Inst
	prefix := relation.NewInstance(in.Schema())
	var rows []relation.Tuple
	for i := 0; i < in.Len(); i++ {
		t := in.Tuple(relation.TupleID(i))
		if i < k {
			prefix.MustAdd(t)
		} else {
			rows = append(rows, t)
		}
	}
	ti := model.NewTemporal(prefix)
	var rest []model.OrderEdge
	for _, ed := range spec.TI.Edges {
		if int(ed.T1) < k && int(ed.T2) < k {
			ti.Edges = append(ti.Edges, ed)
		} else {
			rest = append(rest, ed)
		}
	}
	return model.NewSpec(ti, spec.Sigma, spec.Gamma), rows, rest
}

// digestExtend builds the first half of each entity, appends the rest in
// two ExtendRows rounds, then answers up to two conflicting attributes with
// the ground truth one ExtendAnswers round at a time. The build, every
// verdict and every step's appended suffix enter the digest; a false
// verdict (rebuild required) ends that entity's schedule.
func digestExtend(d *formulaDigest, entities []*datagen.Entity) (appended int) {
	for _, ent := range entities {
		n := ent.Spec.TI.Inst.Len()
		if n < 2 {
			continue
		}
		prefix, rows, edges := splitSpec(ent.Spec, n/2)
		enc := Build(prefix, Options{})
		d.encoding(enc)
		step := func(ok bool, clauseFrom, omegaFrom int) bool {
			d.bool(ok)
			if ok {
				d.suffix(enc, clauseFrom, omegaFrom)
			}
			return ok
		}
		mid := len(rows) / 2
		c, o := numClauses(enc), len(enc.Omega)
		if !step(enc.ExtendRows(rows[:mid], nil), c, o) {
			continue
		}
		c, o = numClauses(enc), len(enc.Omega)
		if !step(enc.ExtendRows(rows[mid:], edges), c, o) {
			continue
		}
		appended++
		answered := 0
		for _, a := range enc.Spec.TI.Inst.ConflictingAttrs() {
			if answered == 2 {
				break
			}
			answered++
			c, o = numClauses(enc), len(enc.Omega)
			if !step(enc.ExtendAnswers(map[relation.Attr]relation.Value{a: ent.Truth[a]}), c, o) {
				break
			}
		}
	}
	return appended
}

// TestGoldenFormulaDigest pins the exact formula the encoder emits across
// standalone builds, skeleton reuse, the sparse transitivity path and the
// incremental ExtendRows/ExtendAnswers deltas, on the paper's fixtures and
// on the three generated datasets. It is cheap enough to run under -short.
func TestGoldenFormulaDigest(t *testing.T) {
	person := goldenPerson()
	nba := datagen.NBA(datagen.NBAConfig{Players: 12, Seed: 7})
	career := datagen.Career(datagen.CareerConfig{Persons: 8, MaxPapers: 35, Seed: 7})
	paper := []*model.Spec{fixtures.EdithSpec(), fixtures.GeorgeSpec()}

	got, gotTriples := map[string]string{}, map[string]string{}
	run := func(name string, f func(d *formulaDigest)) {
		d := newFormulaDigest()
		f(d)
		got[name], gotTriples[name] = d.sum()
	}
	buildAll := func(specs []*model.Spec, opts Options) func(*formulaDigest) {
		return func(d *formulaDigest) {
			for _, s := range specs {
				d.encoding(Build(s, opts))
			}
		}
	}
	skeletonAll := func(specs []*model.Spec) func(*formulaDigest) {
		return func(d *formulaDigest) {
			k := NewSkeleton(specs[0].Sigma, specs[0].Gamma, Options{})
			for _, s := range specs {
				d.encoding(k.Build(s))
			}
		}
	}
	specsOf := func(ds *datagen.Dataset) []*model.Spec {
		out := make([]*model.Spec, len(ds.Entities))
		for i, e := range ds.Entities {
			out[i] = e.Spec
		}
		return out
	}

	run("paper/build", buildAll(paper, Options{}))
	run("paper/skeleton", skeletonAll(paper))
	run("paper/extend-answers", func(d *formulaDigest) {
		for _, s := range paper {
			enc := Build(s, Options{})
			status, _ := enc.Schema.Attr("status")
			ok := enc.ExtendAnswers(map[relation.Attr]relation.Value{status: relation.String("retired")})
			d.bool(ok)
			d.encoding(enc)
		}
	})
	run("person/build", buildAll(specsOf(person), Options{}))
	run("person/skeleton", skeletonAll(specsOf(person)))
	run("person/extend", func(d *formulaDigest) {
		if n := digestExtend(d, person.Entities); n == 0 {
			t.Error("no Person entity took the incremental ExtendRows path")
		}
	})
	run("person/sparse-cap3", func(d *formulaDigest) {
		sparse := 0
		for _, s := range specsOf(person) {
			enc := Build(s, Options{TransitivityCap: 3})
			if enc.Sparse {
				sparse++
			}
			d.encoding(enc)
		}
		if sparse == 0 {
			t.Error("TransitivityCap 3 did not force the sparse path on any entity")
		}
	})
	run("nba/build", buildAll(specsOf(nba), Options{}))
	run("nba/extend", func(d *formulaDigest) { digestExtend(d, nba.Entities) })
	run("career/skeleton", skeletonAll(specsOf(career)))

	for name, want := range goldenDigests {
		if got[name] != want {
			t.Errorf("%s: formula digest %s, want %s", name, got[name], want)
		}
	}
	for name, want := range goldenTriples {
		if gotTriples[name] != want {
			t.Errorf("%s: transitivity digest %s, want %s", name, gotTriples[name], want)
		}
	}
}

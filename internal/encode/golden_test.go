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
// Both were derived from the encoder that still emitted transitivity as
// clauses, with those clauses filtered out of the first digest and
// collected into the second, so they also pin that groups carry exactly
// the triples that encoder emitted.
var goldenDigests = map[string]string{
	"paper/build":          "9369394b1070b5f3541f82970273bb5fa118f6f4b138fd4d3fecccae0e48e7cc",
	"paper/skeleton":       "9369394b1070b5f3541f82970273bb5fa118f6f4b138fd4d3fecccae0e48e7cc",
	"paper/extend-answers": "d4156ca788d49876daa7a35b0c8949b4b91ec10adef06b79969979c2f9073553",
	"person/build":         "f8ecc1dc6a26ebd7c436843d2864c84f36771186c2961afb91702feb95ead20a",
	"person/skeleton":      "f8ecc1dc6a26ebd7c436843d2864c84f36771186c2961afb91702feb95ead20a",
	"person/extend":        "5ee3d6cc4737cd8234f775cbc0b406f64d52552049b27089f664fd2af59c6a71",
	"person/sparse-cap3":   "42b1497ed1b5c8aa86f28ced8516704d79e08ddc5d61e5edc096f6d6e76d29bc",
	"nba/build":            "35c43e84ff9bc70db38df2a56bbcf67107235bb502033df568c557c25184f81b",
	"nba/extend":           "e3c5f4a6de4036135165bbb35a536a1859682f6d6ced4be7a7673e55253ee387",
	"career/skeleton":      "7d5835d3e253c33fad7d9e47a22a93f4c01a24bfc4c70b816951589c2a6a68c1",
}

var goldenTriples = map[string]string{
	"paper/build":          "f8d562b50cfac4600888a57c3d21481571a05e23ac845efe9065518123c55321",
	"paper/skeleton":       "f8d562b50cfac4600888a57c3d21481571a05e23ac845efe9065518123c55321",
	"paper/extend-answers": "4d4f31b4fc8e3dc9fc1c9e723823037b5417304e0838ca0ec80873439de82eec",
	"person/build":         "2427167de84638d404bedccfa7a8da3ed04cf732a4e15f3b15c0a09da5e20b1b",
	"person/skeleton":      "2427167de84638d404bedccfa7a8da3ed04cf732a4e15f3b15c0a09da5e20b1b",
	"person/extend":        "a6340e975b8981bff05244a2eec1a8349698842811cccadd96469a33fc12f38d",
	"person/sparse-cap3":   "0334b8ed6d02f6273ab55b09bfd18dc287ff426a1f234778b86d46d0e897dc53",
	"nba/build":            "b95bbda1b3a102bec81619c7ea7ccef963d02737fe85e5a990cbdbef76751a04",
	"nba/extend":           "f4d9115de3d91d5b1c0b2873356000f31fcc80ecb6c33ed61c8cb447691b8c37",
	"career/skeleton":      "6ed65ae78a518d422500ed5e0464d56af9fca8662f9145a1478aa682d7733434",
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

package encode

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"conflictres/internal/datagen"
	"conflictres/internal/fixtures"
	"conflictres/internal/model"
	"conflictres/internal/relation"
)

// goldenDigests pins Φ(Se) and Ω(Se) byte for byte: variable count, every
// clause's literals in order, every instance (body, head, source) and the
// instance-to-clause index. Any encoder change that is meant to be a pure
// speed-up must leave these untouched; a change that legitimately alters
// the formula must say so and re-derive them (the failure message prints
// the new value).
var goldenDigests = map[string]string{
	"paper/build":          "29a19441ed74ff630dc5fd964cd58871955b07643f1404c3bba930fe0ee5b377",
	"paper/skeleton":       "29a19441ed74ff630dc5fd964cd58871955b07643f1404c3bba930fe0ee5b377",
	"paper/extend-answers": "e0cf2aa20c252019e87f5d78252ee26894fbee0d25c7a803269f835c348d831d",
	"person/build":         "7df6840acc7ce1021b63462ca94b59103d92869488937aaa43eec89b89f402f6",
	"person/skeleton":      "7df6840acc7ce1021b63462ca94b59103d92869488937aaa43eec89b89f402f6",
	"person/extend":        "492a0fc1955466a7b32024806e6de45b14025d816405987ffad249fdb3fbe1c3",
	"person/sparse-cap3":   "9843a1dae19528e31c04693cd488adde1d354753c8acafe600b437d481bdb110",
	"nba/build":            "f5027d6d8a3a60ae6c79feac333079f325e0bf93a6ccd06cccfed707830c73af",
	"nba/extend":           "492be821381c5d99d37f773f93b354d51d48d34f18194419715debfea635de63",
	"career/skeleton":      "746bade1c17720be29c9b576c4e8a5c4526616898b515cfcbaab020ee887a100",
}

// formulaDigest folds encodings into one SHA-256. Values are staged in buf
// and hashed once per encoding, which keeps the test fast under -race.
type formulaDigest struct {
	h   hash.Hash
	buf []byte
}

func newFormulaDigest() *formulaDigest { return &formulaDigest{h: sha256.New()} }

// int appends v as 4 bytes: every digested value (counts, literals,
// domain indices, the -1 source index) fits in 32 bits.
func (d *formulaDigest) int(v int) {
	d.buf = binary.LittleEndian.AppendUint32(d.buf, uint32(int32(v)))
}

func (d *formulaDigest) flush() {
	d.h.Write(d.buf)
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
// index omegaFrom on, plus the variable and total counts. Extension only
// appends, so digesting each step's suffix pins the whole formula.
func (d *formulaDigest) suffix(e *Encoding, clauseFrom, omegaFrom int) {
	cnf := e.CNF()
	d.int(e.NumVars())
	d.int(cnf.NVars)
	d.int(len(cnf.Clauses))
	for _, cl := range cnf.Clauses[clauseFrom:] {
		d.int(len(cl))
		for _, l := range cl {
			d.int(int(l))
		}
	}
	d.int(len(e.Omega))
	idx := e.InstanceClauseIndex()
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
	d.flush()
}

func (d *formulaDigest) sum() string {
	d.flush()
	return hex.EncodeToString(d.h.Sum(nil))
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
		c, o := len(enc.CNF().Clauses), len(enc.Omega)
		if !step(enc.ExtendRows(rows[:mid], nil), c, o) {
			continue
		}
		c, o = len(enc.CNF().Clauses), len(enc.Omega)
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
			c, o = len(enc.CNF().Clauses), len(enc.Omega)
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

	got := map[string]string{}
	run := func(name string, f func(d *formulaDigest)) {
		d := newFormulaDigest()
		f(d)
		got[name] = d.sum()
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
}

package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"conflictres/internal/relation"
)

// formatKey is the dedup key written the plain way: premises sorted by
// attribute, then the conclusion, each printed as attr=quoted value.
func formatKey(r Rule) string {
	type kv struct {
		a relation.Attr
		v string
	}
	var items []kv
	for i, a := range r.X {
		items = append(items, kv{a, r.P[i].Quote()})
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].a < items[j].a })
	var b strings.Builder
	for _, it := range items {
		fmt.Fprintf(&b, "%d=%s,", it.a, it.v)
	}
	fmt.Fprintf(&b, "=>%d=%s", r.B, r.Bv.Quote())
	return b.String()
}

// TestRuleAppendKey checks the allocation-lean key against the plain
// rendering on random rules of every value kind, and that it leaves the
// rule's premise order alone.
func TestRuleAppendKey(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	vals := []relation.Value{
		relation.Null, relation.Int(-3), relation.Int(42), relation.Float(2.5),
		relation.String("LA"), relation.String(`a "quoted", value`),
	}
	var buf []byte
	for n := 0; n < 500; n++ {
		r := Rule{B: relation.Attr(rnd.Intn(20)), Bv: vals[rnd.Intn(len(vals))]}
		for i := rnd.Intn(12); i > 0; i-- {
			r.X = append(r.X, relation.Attr(rnd.Intn(20)))
			r.P = append(r.P, vals[rnd.Intn(len(vals))])
		}
		x := append([]relation.Attr(nil), r.X...)
		buf = r.appendKey(buf[:0])
		if got, want := string(buf), formatKey(r); got != want {
			t.Fatalf("rule %+v: key %q, want %q", r, got, want)
		}
		for i := range x {
			if r.X[i] != x[i] {
				t.Fatalf("appendKey reordered the premises of %+v", r)
			}
		}
	}
}

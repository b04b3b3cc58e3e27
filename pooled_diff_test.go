package conflictres

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// comparableResult strips timings and solver counters so results from the
// pooled, unpooled, and from-scratch engines can be compared exactly.
type comparableResult struct {
	Valid        bool
	Tuple        Tuple
	Resolved     map[Attr]Value
	Rounds       int
	Interactions int
	Suggestions  []Suggestion
}

func stripResult(r *Result) comparableResult {
	return comparableResult{
		Valid:        r.Valid,
		Tuple:        r.Tuple,
		Resolved:     r.Resolved,
		Rounds:       r.Rounds,
		Interactions: r.Interactions,
		Suggestions:  r.Suggestions,
	}
}

// TestPooledResolveMatchesUnpooled is the facade half of the differential
// harness: the pooled pipeline path (rs.Resolve, skeleton + arena solver
// reused across entities) must produce results identical to the per-entity
// construction path and to the from-scratch baseline, over the fixture
// fleet and a seeded random-instance sweep.
func TestPooledResolveMatchesUnpooled(t *testing.T) {
	rs := batchRules(t)
	sch := rs.Schema()

	check := func(t *testing.T, i int, in *Instance) {
		t.Helper()
		bind := func() *Spec {
			spec, err := NewSpecFromRules(in, rs)
			if err != nil {
				t.Fatalf("instance %d: bind: %v", i, err)
			}
			return spec
		}
		pooled, err := rs.Resolve(bind(), nil)
		if err != nil {
			t.Fatalf("instance %d: pooled: %v", i, err)
		}
		unpooled, err := rs.Resolve(bind(), nil, Options{unpooled: true})
		if err != nil {
			t.Fatalf("instance %d: unpooled: %v", i, err)
		}
		scratch, err := Resolve(bind(), nil, Options{fromScratch: true})
		if err != nil {
			t.Fatalf("instance %d: from-scratch: %v", i, err)
		}
		p, u, s := stripResult(pooled), stripResult(unpooled), stripResult(scratch)
		if !reflect.DeepEqual(p, u) {
			t.Fatalf("instance %d: pooled != unpooled\npooled:   %+v\nunpooled: %+v", i, p, u)
		}
		if !reflect.DeepEqual(p, s) {
			t.Fatalf("instance %d: pooled != from-scratch\npooled:  %+v\nscratch: %+v", i, p, s)
		}
	}

	t.Run("fixtures", func(t *testing.T) {
		for i := 0; i < 8; i++ {
			check(t, i, batchInstance(sch, i))
		}
	})

	t.Run("random-sweep", func(t *testing.T) {
		rng := rand.New(rand.NewSource(20260726))
		statuses := []Value{String("working"), String("retired"), String("deceased"), Null}
		jobs := []Value{String("nurse"), String("n/a"), String("clerk"), Null}
		cities := []Value{String("NY"), String("LA"), String("SFC"), Null}
		acs := []Value{String("212"), String("213"), String("415")}
		zips := []Value{String("10036"), String("90058"), String("94924")}
		counties := []Value{String("Manhattan"), String("Vermont"), String("Dogtown"), Null}
		pick := func(vs []Value) Value { return vs[rng.Intn(len(vs))] }
		for i := 0; i < 80; i++ {
			in := NewInstance(sch)
			nT := 2 + rng.Intn(4)
			name := String(fmt.Sprintf("P%d", i))
			for j := 0; j < nT; j++ {
				in.MustAdd(Tuple{
					name, pick(statuses), pick(jobs), Int(int64(rng.Intn(4))),
					pick(cities), pick(acs), pick(zips), pick(counties),
				})
			}
			check(t, i, in)
		}
	})
}

// TestPooledDatasetMatchesUnpooled resolves one CSV dataset through the
// sharded engine twice — pooled pipelines vs per-entity construction — and
// requires the two outputs to be byte-identical per entity (output order is
// completion order, so lines are sorted before comparison). Run under
// -race in CI, this also exercises the pipeline pool from four concurrent
// shards.
func TestPooledDatasetMatchesUnpooled(t *testing.T) {
	rs := batchRules(t)
	const entities = 40
	input := datasetCSV(t, entities)

	run := func(unpooled bool) string {
		var out bytes.Buffer
		stats, err := ResolveDataset(context.Background(), rs, bytes.NewReader(input), &out,
			DatasetOptions{
				KeyColumns: []string{"entity"},
				Shards:     4,
				Sorted:     true,
				unpooled:   unpooled,
			})
		if err != nil {
			t.Fatalf("ResolveDataset(unpooled=%v): %v", unpooled, err)
		}
		if stats.Resolved != entities {
			t.Fatalf("ResolveDataset(unpooled=%v): resolved %d of %d", unpooled, stats.Resolved, entities)
		}
		lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
		if len(lines) != entities+1 { // header + one line per entity
			t.Fatalf("ResolveDataset(unpooled=%v): %d output lines", unpooled, len(lines))
		}
		sort.Strings(lines[1:])
		return strings.Join(lines, "\n")
	}

	pooled := run(false)
	unpooled := run(true)
	if pooled != unpooled {
		t.Fatalf("pooled and unpooled dataset outputs differ:\npooled:\n%s\n\nunpooled:\n%s", pooled, unpooled)
	}
}

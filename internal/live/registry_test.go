package live_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"conflictres"
	"conflictres/internal/fixtures"
	"conflictres/internal/live"
	"conflictres/internal/reference"
	"conflictres/internal/relation"
)

func personRules(t testing.TB) *conflictres.RuleSet {
	return rulesFor(t, fixtures.PersonSchema(), fixtures.Sigma(), fixtures.Gamma())
}

// edithRow returns Edith's first tuple with the kids count overridden, so
// successive rows are distinct but stay monotone for the incremental path
// (kids is not on any CFD left-hand side).
func edithRow(t testing.TB, rs *conflictres.RuleSet, kids int64) conflictres.Tuple {
	t.Helper()
	row := fixtures.EdithInstance().Tuple(0).Clone()
	a, ok := rs.Schema().Attr("kids")
	if !ok {
		t.Fatal("no kids attribute")
	}
	row[a] = relation.Int(kids)
	return row
}

func TestRegistryUpsertGetRemove(t *testing.T) {
	rs := personRules(t)
	reg := live.NewRegistry(8, 0)
	defer reg.Close()

	res, err := reg.Upsert("edith", rs, "h1", live.Op{Rows: []conflictres.Tuple{edithRow(t, rs, 0)}})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if !res.Created || res.State.Rows != 1 {
		t.Fatalf("create: %+v", res)
	}
	res, err = reg.Upsert("edith", rs, "h1", live.Op{Rows: []conflictres.Tuple{edithRow(t, rs, 1)}})
	if err != nil {
		t.Fatalf("upsert: %v", err)
	}
	if res.Created || res.State.Rows != 2 || !res.Extended {
		t.Fatalf("upsert: %+v", res)
	}

	got, ok, err := reg.Get("edith")
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	sch := rs.Schema()
	if a, b := fingerprint(sch, got.State.Valid, got.State.Resolved, got.State.Tuple),
		fingerprint(sch, res.State.Valid, res.State.Resolved, res.State.Tuple); a != b {
		t.Fatalf("get state diverged from upsert state:\nget:    %s\nupsert: %s", a, b)
	}

	if _, err := reg.Upsert("edith", rs, "h2", live.Op{}); !errors.Is(err, live.ErrRulesChanged) {
		t.Fatalf("rules change: got %v, want ErrRulesChanged", err)
	}

	if !reg.Remove("edith") {
		t.Fatal("remove reported absent")
	}
	if _, ok, _ := reg.Get("edith"); ok {
		t.Fatal("entity survived Remove")
	}
	if reg.Remove("edith") {
		t.Fatal("second Remove reported present")
	}
}

// TestRegistryConcurrentUpsertsSerialize hammers one key from many
// goroutines without retries: every attempt must either succeed or fail
// with ErrBusy, and the final row count must equal the number of successes
// — the entry mutex admits exactly one delta at a time. Run under -race
// this is also the data-race check on the shared live session.
func TestRegistryConcurrentUpsertsSerialize(t *testing.T) {
	rs := personRules(t)
	reg := live.NewRegistry(8, 0)
	defer reg.Close()

	const goroutines = 8
	const attempts = 25
	var ok, busy atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				row := edithRow(t, rs, int64(g*attempts+i))
				_, err := reg.Upsert("edith", rs, "h", live.Op{Rows: []conflictres.Tuple{row}})
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, live.ErrBusy):
					busy.Add(1)
				default:
					t.Errorf("goroutine %d: unexpected error: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	res, found, err := reg.Get("edith")
	if err != nil || !found {
		t.Fatalf("get after hammer: found=%v err=%v", found, err)
	}
	if int64(res.State.Rows) != ok.Load() {
		t.Fatalf("%d successful upserts but %d rows landed (busy=%d)", ok.Load(), res.State.Rows, busy.Load())
	}
	t.Logf("serialized: %d ok, %d busy, %d rows", ok.Load(), busy.Load(), res.State.Rows)
}

// TestRegistryCloseVsInflightUpsert shuts the registry down while a
// goroutine keeps feeding deltas: Close must block on the in-flight extend
// (never yanking the pipeline out from under it) and every attempt after
// shutdown must fail with ErrShutdown.
func TestRegistryCloseVsInflightUpsert(t *testing.T) {
	rs := personRules(t)
	reg := live.NewRegistry(0, 0)

	done := make(chan error, 1)
	go func() {
		for i := 0; ; i++ {
			_, err := reg.Upsert("edith", rs, "h", live.Op{Rows: []conflictres.Tuple{edithRow(t, rs, int64(i))}})
			if err != nil {
				done <- err
				return
			}
		}
	}()
	time.Sleep(5 * time.Millisecond)
	reg.Close()
	if err := <-done; !errors.Is(err, live.ErrShutdown) {
		t.Fatalf("upsert after Close: got %v, want ErrShutdown", err)
	}
	if _, _, err := reg.Get("edith"); !errors.Is(err, live.ErrShutdown) {
		t.Fatalf("get after Close: got %v, want ErrShutdown", err)
	}
	reg.Close() // idempotent
}

// TestRegistryEvictionRebuildsCleanly pins the LRU path: with capacity 1
// the second entity evicts the first, and re-upserting the evicted key
// starts a fresh entity (prior rows gone, pipeline back from the pool)
// whose state is again differential-clean.
func TestRegistryEvictionRebuildsCleanly(t *testing.T) {
	rs := personRules(t)
	reg := live.NewRegistry(1, 0)
	defer reg.Close()

	if _, err := reg.Upsert("a", rs, "h", live.Op{Rows: []conflictres.Tuple{edithRow(t, rs, 0)}}); err != nil {
		t.Fatalf("create a: %v", err)
	}
	if _, err := reg.Upsert("a", rs, "h", live.Op{Rows: []conflictres.Tuple{edithRow(t, rs, 1)}}); err != nil {
		t.Fatalf("grow a: %v", err)
	}
	if _, err := reg.Upsert("b", rs, "h", live.Op{Rows: []conflictres.Tuple{edithRow(t, rs, 7)}}); err != nil {
		t.Fatalf("create b: %v", err)
	}
	if c := reg.CountersSnapshot(); c.Evicted != 1 {
		t.Fatalf("evicted=%d after capacity overflow, want 1", c.Evicted)
	}
	if reg.Live() != 1 {
		t.Fatalf("live=%d with cap 1, want 1", reg.Live())
	}
	if _, ok, _ := reg.Get("a"); ok {
		t.Fatal("evicted entity still answers Get")
	}

	res, err := reg.Upsert("a", rs, "h", live.Op{Rows: []conflictres.Tuple{edithRow(t, rs, 2)}})
	if err != nil {
		t.Fatalf("recreate a: %v", err)
	}
	if !res.Created || res.State.Rows != 1 {
		t.Fatalf("recreate a: %+v, want a fresh 1-row entity", res)
	}
	scratch, err := reference.FromScratch(mustSpec(t, reg, "a").Model())
	if err != nil {
		t.Fatalf("from-scratch after recreate: %v", err)
	}
	sch := rs.Schema()
	if a, b := fingerprint(sch, res.State.Valid, res.State.Resolved, res.State.Tuple),
		fingerprint(sch, scratch.Valid, scratch.Resolved, scratch.Tuple); a != b {
		t.Fatalf("recreated entity diverged:\nlive:    %s\nscratch: %s", a, b)
	}
}

func mustSpec(t *testing.T, reg *live.Registry, key string) *conflictres.Spec {
	t.Helper()
	spec, ok, err := reg.Spec(key)
	if err != nil || !ok {
		t.Fatalf("spec %q: ok=%v err=%v", key, ok, err)
	}
	return spec
}

// TestRegistryTTL pins both expiry paths: lazy expiry on access (an expired
// key re-creates) and the janitor Sweep.
func TestRegistryTTL(t *testing.T) {
	rs := personRules(t)
	reg := live.NewRegistry(0, 10*time.Millisecond)
	defer reg.Close()

	if _, err := reg.Upsert("a", rs, "h", live.Op{Rows: []conflictres.Tuple{edithRow(t, rs, 0)}}); err != nil {
		t.Fatalf("create: %v", err)
	}
	time.Sleep(25 * time.Millisecond)
	res, err := reg.Upsert("a", rs, "h", live.Op{Rows: []conflictres.Tuple{edithRow(t, rs, 1)}})
	if err != nil {
		t.Fatalf("upsert after ttl: %v", err)
	}
	if !res.Created || res.State.Rows != 1 {
		t.Fatalf("expired entity was not re-created: %+v", res)
	}

	time.Sleep(25 * time.Millisecond)
	reg.Sweep()
	if reg.Live() != 0 {
		t.Fatalf("live=%d after sweep, want 0", reg.Live())
	}
	if c := reg.CountersSnapshot(); c.Expired != 2 {
		t.Fatalf("expired=%d, want 2 (one lazy, one swept)", c.Expired)
	}
}

// TestRegistrySweepRace runs the janitor concurrently with upserts under an
// aggressive TTL, so expiry constantly races in-flight extends; the race
// detector and the error contract (nil or ErrBusy only) are the assertions.
func TestRegistrySweepRace(t *testing.T) {
	rs := personRules(t)
	reg := live.NewRegistry(4, time.Nanosecond)
	defer reg.Close()

	stop := make(chan struct{})
	sweeperDone := make(chan struct{})
	go func() {
		defer close(sweeperDone)
		for {
			select {
			case <-stop:
				return
			default:
				reg.Sweep()
			}
		}
	}()

	var wg sync.WaitGroup
	for _, key := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, err := reg.Upsert(key, rs, "h", live.Op{Rows: []conflictres.Tuple{edithRow(t, rs, int64(i))}})
				if err != nil && !errors.Is(err, live.ErrBusy) {
					t.Errorf("key %s: unexpected error: %v", key, err)
					return
				}
			}
		}(key)
	}
	wg.Wait()
	close(stop)
	<-sweeperDone
}

// TestRegistryStateSnapshotSurvivesRebuild is the live-layer half of the
// skeleton-invalidation regression: a State snapshot taken before a
// non-monotone upsert (which rebuilds the encoding, invalidating every
// slice the previous encoding handed out) must be unchanged afterwards —
// proof that results are copied out of the encoding before the pipeline is
// touched again.
func TestRegistryStateSnapshotSurvivesRebuild(t *testing.T) {
	rs := personRules(t)
	reg := live.NewRegistry(0, 0)
	defer reg.Close()

	rows := fixtures.EdithInstance()
	res, err := reg.Upsert("edith", rs, "h",
		live.Op{Rows: []conflictres.Tuple{rows.Tuple(0).Clone(), rows.Tuple(1).Clone()}})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	snap := res.State
	sch := rs.Schema()
	before := fingerprint(sch, snap.Valid, snap.Resolved, snap.Tuple)

	// A fresh AC value on the CFD left-hand side forces the rebuild path.
	fresh := rows.Tuple(2).Clone()
	ac, _ := sch.Attr("AC")
	fresh[ac] = relation.String("999")
	res2, err := reg.Upsert("edith", rs, "h", live.Op{Rows: []conflictres.Tuple{fresh}})
	if err != nil {
		t.Fatalf("rebuild upsert: %v", err)
	}
	if res2.Extended {
		t.Fatal("fresh CFD-LHS value was applied incrementally")
	}
	if c := reg.CountersSnapshot(); c.Rebuilds == 0 {
		t.Fatalf("rebuild counter not bumped: %+v", c)
	}

	if after := fingerprint(sch, snap.Valid, snap.Resolved, snap.Tuple); after != before {
		t.Fatalf("pre-rebuild snapshot mutated by the rebuild:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestRegistryRowLogAndSnapshot pins the row-log contract: every accepted
// upsert lands in the entity's log in arrival order, Snapshot hands out a
// replayable EntityLog per entity, and a rejected (faulted) delta never
// reaches the log.
func TestRegistryRowLogAndSnapshot(t *testing.T) {
	rs := personRules(t)
	reg := live.NewRegistry(0, 0)
	defer reg.Close()

	wire := []byte(`{"schema":["person"]}`)
	mode := conflictres.ResolutionMode{Strategy: conflictres.StrategyLatestWriterWins}
	if _, err := reg.Upsert("edith", rs, "h", live.Op{
		Rows: []conflictres.Tuple{edithRow(t, rs, 0)}, Sources: []string{"hq"},
		Mode: mode, RulesWire: wire,
	}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := reg.Upsert("edith", rs, "h", live.Op{
		Rows: []conflictres.Tuple{edithRow(t, rs, 1)},
		// RulesWire and Mode on an extend are ignored: creation-time wins.
		Mode: conflictres.ResolutionMode{}, RulesWire: []byte("ignored"),
	}); err != nil {
		t.Fatalf("extend: %v", err)
	}

	var logs []live.EntityLog
	written, skipped, err := reg.Snapshot(func(el live.EntityLog) error {
		logs = append(logs, el)
		return nil
	})
	if err != nil || written != 1 || skipped != 0 {
		t.Fatalf("snapshot: written=%d skipped=%d err=%v", written, skipped, err)
	}
	el := logs[0]
	if el.Key != "edith" || string(el.RulesWire) != string(wire) || el.Mode.Strategy != mode.Strategy {
		t.Fatalf("snapshot metadata: %+v", el)
	}
	if len(el.Deltas) != 2 {
		t.Fatalf("log has %d deltas, want 2", len(el.Deltas))
	}
	if len(el.Deltas[0].Rows) != 1 || el.Deltas[0].Sources[0] != "hq" {
		t.Fatalf("first delta: %+v", el.Deltas[0])
	}
	a, _ := rs.Schema().Attr("kids")
	if got := el.Deltas[1].Rows[0][a]; got.String() != relation.Int(1).String() {
		t.Fatalf("second delta kids = %v, want 1", got)
	}

	// A faulted upsert is rejected un-acked: no new delta, no state change.
	reg.SetFault(func() error { return errors.New("disk on fire") })
	if _, err := reg.Upsert("edith", rs, "h", live.Op{
		Rows: []conflictres.Tuple{edithRow(t, rs, 2)},
	}); !errors.Is(err, live.ErrFaulted) {
		t.Fatalf("faulted upsert: got %v, want ErrFaulted", err)
	}
	// A faulted create must not leave a placeholder behind.
	if _, err := reg.Upsert("ghost", rs, "h", live.Op{
		Rows: []conflictres.Tuple{edithRow(t, rs, 0)},
	}); !errors.Is(err, live.ErrFaulted) {
		t.Fatalf("faulted create: got %v, want ErrFaulted", err)
	}
	if _, ok, _ := reg.Get("ghost"); ok {
		t.Fatal("faulted create left an entity behind")
	}
	reg.SetFault(nil)
	res, _, err := reg.Get("edith")
	if err != nil || res.State.Rows != 2 {
		t.Fatalf("state after faulted delta: rows=%d err=%v, want the pre-fault 2", res.State.Rows, err)
	}
	written, _, err = reg.Snapshot(func(el live.EntityLog) error {
		if len(el.Deltas) != 2 {
			t.Fatalf("faulted delta reached the log: %d deltas", len(el.Deltas))
		}
		return nil
	})
	if err != nil || written != 1 {
		t.Fatalf("re-snapshot: written=%d err=%v", written, err)
	}
}

package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"conflictres"
)

func key(i int) cacheKey {
	var k cacheKey
	k[0], k[1] = byte(i), byte(i>>8)
	return k
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRU(2)
	c.put(key(1), "one")
	c.put(key(2), "two")
	if _, ok := c.get(key(1)); !ok { // promote 1; 2 becomes LRU
		t.Fatal("1 missing")
	}
	c.put(key(3), "three") // evicts 2
	if _, ok := c.get(key(2)); ok {
		t.Error("2 should have been evicted")
	}
	for _, i := range []int{1, 3} {
		if _, ok := c.get(key(i)); !ok {
			t.Errorf("%d should be cached", i)
		}
	}
	if _, _, size := c.stats(); size != 2 {
		t.Errorf("size = %d, want 2", size)
	}
}

func TestLRUUpdateExistingKey(t *testing.T) {
	c := newLRU(2)
	c.put(key(1), "a")
	c.put(key(1), "b")
	v, ok := c.get(key(1))
	if !ok || v.(string) != "b" {
		t.Fatalf("got %v, %v", v, ok)
	}
	if _, _, size := c.stats(); size != 1 {
		t.Errorf("size = %d, want 1", size)
	}
}

func TestLRUDisabled(t *testing.T) {
	c := newLRU(0)
	c.put(key(1), "x")
	if _, ok := c.get(key(1)); ok {
		t.Error("disabled cache must not store")
	}
}

func TestLRUHitMissStats(t *testing.T) {
	c := newLRU(4)
	c.put(key(1), "x")
	c.get(key(1))
	c.get(key(2))
	hits, misses, _ := c.stats()
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestLRUConcurrentAccessRace hammers one cache from many goroutines for the
// race detector.
func TestLRUConcurrentAccessRace(t *testing.T) {
	c := newLRU(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key((g*7 + i) % 32)
				if v, ok := c.get(k); ok {
					_ = v.(string)
				} else {
					c.put(k, fmt.Sprintf("v%d", i))
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestRulesKeyDistinguishesFields(t *testing.T) {
	a := ruleSetJSON{Schema: []string{"a", "b"}, Currency: []string{"x"}}
	// Same strings distributed differently across fields must not collide.
	b := ruleSetJSON{Schema: []string{"a", "b", "x"}}
	c := ruleSetJSON{Schema: []string{"a"}, Currency: []string{"b", "x"}}
	ka, kb, kc := rulesKey(&a), rulesKey(&b), rulesKey(&c)
	if ka == kb || ka == kc || kb == kc {
		t.Fatalf("key collision: %x %x %x", ka[:4], kb[:4], kc[:4])
	}
	if rulesKey(&a) != ka {
		t.Error("rulesKey must be deterministic")
	}
}

// keyOf compiles rs, binds e and keys the problem under the named mode, the
// way the resolve endpoints do.
func keyOf(t *testing.T, s *Server, rs ruleSetJSON, e entityJSON, mode string) cacheKey {
	t.Helper()
	rules, rk, err := s.compileRules(&rs)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := bindEntity(rules, e.Tuples, e.Sources, e.Orders)
	if err != nil {
		t.Fatal(err)
	}
	strat, err := conflictres.ParseStrategy(mode)
	if err != nil {
		t.Fatal(err)
	}
	return specKey(rk, spec, e.Orders, conflictres.ResolutionMode{Strategy: strat})
}

func rawRows(t *testing.T, rows string) [][]json.RawMessage {
	t.Helper()
	var out [][]json.RawMessage
	if err := json.Unmarshal([]byte(rows), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSpecKeyChangesWithEveryPart: the result-cache key is the rules key
// plus the entity, so changing any single part of the problem — a Σ, Γ or
// trust text, a cell, a source, the mode or an order — changes the key,
// while equal problems (including equal cells spelled differently on the
// wire) share one.
func TestSpecKeyChangesWithEveryPart(t *testing.T) {
	s := New(Config{})
	t.Cleanup(s.Close)
	baseRules := func() ruleSetJSON {
		rs := edithRules()
		rs.Trust = []string{`"hq" > "mirror"`}
		return rs
	}
	baseEntity := func() entityJSON {
		return entityJSON{
			Tuples:  rawRows(t, edithTuples(1)),
			Sources: []string{"hq", "mirror", "hq"},
			Orders:  []orderJSON{{Attr: "city", T1: 0, T2: 1}},
		}
	}
	base := keyOf(t, s, baseRules(), baseEntity(), "")
	if again := keyOf(t, s, baseRules(), baseEntity(), ""); again != base {
		t.Fatal("equal problems must share a key")
	}
	if sat := keyOf(t, s, baseRules(), baseEntity(), "sat"); sat != base {
		t.Fatal(`the default mode and "sat" are one strategy and must share a key`)
	}
	respelled := baseEntity()
	respelled.Tuples[0][0] = json.RawMessage(`"\u0045dith 1"`) // "Edith 1"
	if k := keyOf(t, s, baseRules(), respelled, ""); k != base {
		t.Fatal("an escaped spelling of the same string must share the key")
	}

	variants := map[string]func(rs *ruleSetJSON, e *entityJSON) string{
		"sigma text": func(rs *ruleSetJSON, _ *entityJSON) string {
			rs.Currency = append([]string(nil), rs.Currency[:len(rs.Currency)-1]...)
			return ""
		},
		"gamma text": func(rs *ruleSetJSON, _ *entityJSON) string {
			rs.CFDs = []string{rs.CFDs[0], `AC = "212" => city = "LA"`}
			return ""
		},
		"trust text": func(rs *ruleSetJSON, _ *entityJSON) string {
			rs.Trust = []string{`"mirror" > "hq"`}
			return ""
		},
		"cell": func(_ *ruleSetJSON, e *entityJSON) string {
			e.Tuples[2][4] = json.RawMessage(`"SF"`)
			return ""
		},
		"cell kind": func(_ *ruleSetJSON, e *entityJSON) string {
			e.Tuples[0][6] = json.RawMessage(`10036`) // the string "10036" before
			return ""
		},
		"source": func(_ *ruleSetJSON, e *entityJSON) string {
			e.Sources[1] = "hq"
			return ""
		},
		"mode":  func(*ruleSetJSON, *entityJSON) string { return "consensus" },
		"order": func(_ *ruleSetJSON, e *entityJSON) string { e.Orders[0].T2 = 2; return "" },
		"order attr": func(_ *ruleSetJSON, e *entityJSON) string {
			e.Orders[0].Attr = "zip"
			return ""
		},
		"no orders": func(_ *ruleSetJSON, e *entityJSON) string { e.Orders = nil; return "" },
	}
	seen := map[cacheKey]string{base: "base"}
	for name, change := range variants {
		rs, e := baseRules(), baseEntity()
		mode := change(&rs, &e)
		k := keyOf(t, s, rs, e, mode)
		if other, dup := seen[k]; dup {
			t.Errorf("changing the %s left the key equal to %s's", name, other)
		}
		seen[k] = name
	}
}

// TestCacheSharedAcrossEndpoints: one entity resolved through any of
// /v1/resolve, /v1/resolve/batch and /v1/resolve/dataset fills the one
// cache entry the other two read — the second request answers cached.
func TestCacheSharedAcrossEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resolve := func(i int) bool {
		t.Helper()
		resp, data := postJSON(t, ts.URL+"/v1/resolve", edithRequestBody(t, i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("resolve: status %d: %s", resp.StatusCode, data)
		}
		var out resultJSON
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		return out.Cached
	}
	batch := func(i int) bool {
		t.Helper()
		rj, err := json.Marshal(edithRules())
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("%s\n{\"id\":\"e%d\",\"tuples\":%s}\n", rj, i, strings.ReplaceAll(edithTuples(i), "\n", ""))
		resp, data := postJSON(t, ts.URL+"/v1/resolve/batch", []byte(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: status %d: %s", resp.StatusCode, data)
		}
		var out resultJSON
		if err := json.Unmarshal(data, &out); err != nil || out.Error != nil {
			t.Fatalf("batch line %s: %v", data, err)
		}
		return out.Cached
	}
	dataset := func(i int) bool {
		t.Helper()
		results, _ := postDataset(t, ts.URL, datasetHeaderLine(t, nil, true)+"\n"+edithRows(i))
		res := results[fmt.Sprintf("e%d", i)]
		if res == nil || res.Error != nil || !res.Valid {
			t.Fatalf("dataset result %+v", res)
		}
		return res.Cached
	}
	endpoints := []struct {
		name string
		call func(int) bool
	}{{"resolve", resolve}, {"batch", batch}, {"dataset", dataset}}
	entity := 100
	for _, first := range endpoints {
		for _, second := range endpoints {
			if first.name == second.name {
				continue
			}
			entity++
			if first.call(entity) {
				t.Fatalf("%s first: entity %d already cached", first.name, entity)
			}
			if !second.call(entity) {
				t.Errorf("%s after %s: not answered from the cache", second.name, first.name)
			}
		}
	}
}

package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"conflictres/internal/fixtures"
	"conflictres/internal/model"
	"conflictres/internal/relation"
)

// entityWire renders an upsert body: the spec's rule set plus the selected
// rows of its instance (and optional orders against the accumulated log).
func entityWire(t *testing.T, spec *model.Spec, rowIDs []int, orders []map[string]any) []byte {
	t.Helper()
	req := specWire(spec, "ignored")
	delete(req, "entity")
	var rows [][]any
	for _, id := range rowIDs {
		var row []any
		for _, v := range spec.TI.Inst.Tuple(relation.TupleID(id)) {
			row = append(row, v.AsJSON())
		}
		rows = append(rows, row)
	}
	req["rows"] = rows
	if orders != nil {
		req["orders"] = orders
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func entityUpsert(t *testing.T, ts *httptest.Server, key string, body []byte) (entityStateJSON, *http.Response) {
	t.Helper()
	resp, data := postJSON(t, ts.URL+"/v1/entity/"+key+"/rows", body)
	var st entityStateJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("bad entity state %s: %v", data, err)
		}
	}
	return st, resp
}

func entityGet(t *testing.T, ts *httptest.Server, key string) (entityStateJSON, *http.Response) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/entity/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st entityStateJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("bad entity state: %v", err)
		}
	}
	return st, resp
}

// TestEntityEndpoints walks the change-data-capture surface end to end:
// create by first upsert, incremental extend, edge-only delta, cached get,
// delete, and the not-found / rules-changed / bad-delta error answers.
func TestEntityEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	defer ts.Close()
	spec := fixtures.EdithSpec()

	st, resp := entityUpsert(t, ts, "edith", entityWire(t, spec, []int{0}, nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	if !st.Created || st.Rows != 1 || st.Extended != nil {
		t.Fatalf("create: %+v", st)
	}

	// A monotone delta (no fresh CFD left-hand-side value) must take the
	// incremental path: same first row with a different kids count.
	var monoReq map[string]any
	if err := json.Unmarshal(entityWire(t, spec, []int{0}, nil), &monoReq); err != nil {
		t.Fatal(err)
	}
	monoReq["rows"].([]any)[0].([]any)[3] = 1 // kids
	mono, _ := json.Marshal(monoReq)
	st, _ = entityUpsert(t, ts, "edith", mono)
	if st.Created || st.Rows != 2 || st.Extended == nil || !*st.Extended {
		t.Fatalf("extend: %+v", st)
	}

	// An edge-only delta whose order indices address the accumulated log.
	st, resp = entityUpsert(t, ts, "edith", entityWire(t, spec, nil,
		[]map[string]any{{"attr": "status", "t1": 0, "t2": 1}}))
	if resp.StatusCode != http.StatusOK || st.Rows != 2 {
		t.Fatalf("edge-only: status %d, %+v", resp.StatusCode, st)
	}

	got, resp := entityGet(t, ts, "edith")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: status %d", resp.StatusCode)
	}
	if !got.Cached || got.Rows != st.Rows || got.Valid != st.Valid || got.Extended != nil {
		t.Fatalf("get after upsert: %+v, want cached snapshot of %+v", got, st)
	}

	// A different rule set on an existing entity is refused.
	other := fixtures.GeorgeSpec()
	other.Gamma = nil
	_, resp = entityUpsert(t, ts, "edith", entityWire(t, other, []int{0}, nil))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("rules change: status %d, want 409", resp.StatusCode)
	}

	// Malformed delta: row arity mismatch.
	var req map[string]any
	if err := json.Unmarshal(entityWire(t, spec, []int{0}, nil), &req); err != nil {
		t.Fatal(err)
	}
	req["rows"] = [][]any{{"just-one-cell"}}
	bad, _ := json.Marshal(req)
	_, resp = entityUpsert(t, ts, "edith", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad rows: status %d, want 400", resp.StatusCode)
	}

	delReq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/entity/edith", nil)
	if err != nil {
		t.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", delResp.StatusCode)
	}

	if _, resp = entityGet(t, ts, "edith"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", resp.StatusCode)
	}
	delResp, err = http.DefaultClient.Do(delReq.Clone(delReq.Context()))
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete: status %d, want 404", delResp.StatusCode)
	}
}

// TestEntityUpsertRebuildOverHTTP pins the wire-visible half of the
// non-monotone path: a row with a fresh CFD left-hand-side value reports
// extended=false and bumps the entity's rebuild counter.
func TestEntityUpsertRebuildOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	defer ts.Close()
	spec := fixtures.EdithSpec()

	if _, resp := entityUpsert(t, ts, "e", entityWire(t, spec, []int{0, 1}, nil)); resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d", resp.StatusCode)
	}

	var req map[string]any
	if err := json.Unmarshal(entityWire(t, spec, []int{2}, nil), &req); err != nil {
		t.Fatal(err)
	}
	row := req["rows"].([]any)[0].([]any)
	row[5] = "999" // AC: a value no ψ pattern and no prior tuple carries
	body, _ := json.Marshal(req)
	st, resp := entityUpsert(t, ts, "e", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("non-monotone upsert: status %d", resp.StatusCode)
	}
	if st.Extended == nil || *st.Extended || st.Rebuilds == 0 {
		t.Fatalf("non-monotone upsert: %+v, want extended=false with a rebuild", st)
	}
	if st.Rows != 3 {
		t.Fatalf("rows=%d after rebuild, want 3", st.Rows)
	}
}

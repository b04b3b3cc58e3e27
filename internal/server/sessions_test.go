package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"conflictres"
	"conflictres/internal/fixtures"
	"conflictres/internal/live"
	"conflictres/internal/model"
	"conflictres/internal/reference"
)

// specWire renders a model-level specification as a session-create request
// (schema, constraint texts, entity tuples, explicit orders) — shared by
// the endpoint tests and BenchmarkSessionHTTPLoop.
func specWire(spec *model.Spec, id string) map[string]any {
	sch := spec.Schema()
	req := map[string]any{"schema": sch.Names()}
	var sigma []string
	for _, c := range spec.Sigma {
		sigma = append(sigma, c.Format(sch))
	}
	if sigma != nil {
		req["currency"] = sigma
	}
	var gamma []string
	for _, c := range spec.Gamma {
		gamma = append(gamma, c.Format(sch))
	}
	if gamma != nil {
		req["cfds"] = gamma
	}
	var tuples [][]any
	for _, tid := range spec.TI.Inst.TupleIDs() {
		var row []any
		for _, v := range spec.TI.Inst.Tuple(tid) {
			row = append(row, v.AsJSON())
		}
		tuples = append(tuples, row)
	}
	entity := map[string]any{"id": id, "tuples": tuples}
	var orders []map[string]any
	for _, e := range spec.TI.Edges {
		orders = append(orders, map[string]any{"attr": sch.Name(e.Attr), "t1": int(e.T1), "t2": int(e.T2)})
	}
	if orders != nil {
		entity["orders"] = orders
	}
	req["entity"] = entity
	return req
}

// wireFromSpec is specWire marshalled, failing the test on codec errors.
func wireFromSpec(t *testing.T, spec *model.Spec, id string) []byte {
	t.Helper()
	body, err := json.Marshal(specWire(spec, id))
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func createSession(t *testing.T, url string, body []byte) (sessionStateJSON, *http.Response) {
	t.Helper()
	resp, data := postJSON(t, url+"/v1/session", body)
	var state sessionStateJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &state); err != nil {
			t.Fatalf("bad session state %s: %v", data, err)
		}
	}
	return state, resp
}

func postAnswer(t *testing.T, url, id string, answers map[string]any) (sessionStateJSON, *http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"answers": answers})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, url+"/v1/session/"+id+"/answer", body)
	var state sessionStateJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &state); err != nil {
			t.Fatalf("bad session state %s: %v", data, err)
		}
	}
	return state, resp, data
}

func getSession(t *testing.T, url, id string) (sessionStateJSON, *http.Response) {
	t.Helper()
	resp, err := http.Get(url + "/v1/session/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var state sessionStateJSON
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
			t.Fatal(err)
		}
	}
	return state, resp
}

func deleteSession(t *testing.T, url, id string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/v1/session/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestSessionLoopGeorge drives the paper's George entity through the full
// interactive loop over HTTP: create (validity + deduction + first
// suggestion), one answer round (Se ⊕ Ot), completion, delete.
func TestSessionLoopGeorge(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	state, resp := createSession(t, ts.URL, wireFromSpec(t, fixtures.GeorgeSpec(), "george"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	if state.Session == "" || !state.Valid || state.EntityID != "george" {
		t.Fatalf("state = %+v", state)
	}
	if state.Complete || state.Suggestion == nil {
		t.Fatalf("George needs input; state = %+v", state)
	}
	found := false
	for _, a := range state.Suggestion.Attrs {
		if a == "status" {
			found = true
		}
	}
	if !found {
		t.Fatalf("suggestion must ask for status: %+v", state.Suggestion)
	}

	next, resp, data := postAnswer(t, ts.URL, state.Session, map[string]any{"status": "retired"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer status %d: %s", resp.StatusCode, data)
	}
	if !next.Complete || next.Interactions != 1 || next.Rounds != 2 {
		t.Fatalf("after answer: %+v", next)
	}
	if next.Resolved["job"] != "veteran" {
		t.Fatalf("resolved = %v", next.Resolved)
	}

	// GET returns the same state.
	got, resp := getSession(t, ts.URL, state.Session)
	if resp.StatusCode != http.StatusOK || !reflect.DeepEqual(got.Resolved, next.Resolved) {
		t.Fatalf("get = %+v (status %d)", got, resp.StatusCode)
	}

	if resp := deleteSession(t, ts.URL, state.Session); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	if resp := deleteSession(t, ts.URL, state.Session); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete status %d, want 404", resp.StatusCode)
	}
	if _, resp := getSession(t, ts.URL, state.Session); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete status %d, want 404", resp.StatusCode)
	}
}

// TestSessionDifferentialHTTPvsInProcess proves the HTTP loop reaches the
// same final Result as an in-process facade Session on the fixture specs,
// answering the same values in the same order.
func TestSessionDifferentialHTTPvsInProcess(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name    string
		spec    *model.Spec
		answers map[string]any
	}{
		{"edith-auto", fixtures.EdithSpec(), nil},
		{"george-one-answer", fixtures.GeorgeSpec(), map[string]any{"status": "retired"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// HTTP loop.
			state, resp := createSession(t, ts.URL, wireFromSpec(t, tc.spec, tc.name))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("create status %d", resp.StatusCode)
			}
			if len(tc.answers) > 0 {
				var data []byte
				state, resp, data = postAnswer(t, ts.URL, state.Session, tc.answers)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("answer status %d: %s", resp.StatusCode, data)
				}
			}

			// In-process facade session on an identical spec.
			sch := tc.spec.Schema()
			var sigma, gamma []string
			for _, c := range tc.spec.Sigma {
				sigma = append(sigma, c.Format(sch))
			}
			for _, c := range tc.spec.Gamma {
				gamma = append(gamma, c.Format(sch))
			}
			spec, err := conflictres.NewSpec(tc.spec.TI.Inst.Clone(), sigma, gamma)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range tc.spec.TI.Edges {
				if err := spec.AddOrder(sch.Name(e.Attr), e.T1, e.T2); err != nil {
					t.Fatal(err)
				}
			}
			sess, err := conflictres.NewSession(spec)
			if err != nil {
				t.Fatal(err)
			}
			conv := make(map[string]conflictres.Value, len(tc.answers))
			for k, v := range tc.answers {
				conv[k] = conflictres.String(v.(string))
			}
			if len(conv) > 0 {
				if err := sess.Apply(conv); err != nil {
					t.Fatal(err)
				}
			}
			res := sess.Result()

			if state.Valid != res.Valid || state.Complete != res.Complete() ||
				state.Rounds != res.Rounds || state.Interactions != res.Interactions {
				t.Fatalf("HTTP %+v vs in-process valid=%v complete=%v rounds=%d interactions=%d",
					state, res.Valid, res.Complete(), res.Rounds, res.Interactions)
			}
			// Compare resolved values through a JSON round-trip so numeric
			// types normalize the same way on both sides.
			norm := func(resolved map[conflictres.Attr]conflictres.Value) map[string]any {
				want := map[string]any{}
				for a, v := range resolved {
					want[sch.Name(a)] = v.AsJSON()
				}
				wj, _ := json.Marshal(want)
				var wantNorm map[string]any
				json.Unmarshal(wj, &wantNorm)
				return wantNorm
			}
			if want := norm(res.Resolved); !reflect.DeepEqual(state.Resolved, want) {
				t.Fatalf("HTTP resolved %v, in-process %v", state.Resolved, want)
			}

			// HTTP and in-process sessions share the stateful facade, so
			// both are also checked against an independent path: the
			// one-call Resolve loop, with an oracle scripted to give the
			// same answers in its first round of interaction.
			asked := false
			ref, err := conflictres.Resolve(spec, conflictres.OracleFunc(func(conflictres.Suggestion) map[conflictres.Attr]conflictres.Value {
				if asked {
					return nil
				}
				asked = true
				out := make(map[conflictres.Attr]conflictres.Value, len(conv))
				for name, v := range conv {
					out[sch.MustAttr(name)] = v
				}
				return out
			}))
			if err != nil {
				t.Fatal(err)
			}
			if state.Valid != ref.Valid || state.Rounds != ref.Rounds || state.Interactions != ref.Interactions {
				t.Fatalf("HTTP %+v vs Resolve valid=%v rounds=%d interactions=%d",
					state, ref.Valid, ref.Rounds, ref.Interactions)
			}
			if want := norm(ref.Resolved); !reflect.DeepEqual(state.Resolved, want) {
				t.Fatalf("HTTP resolved %v, Resolve %v", state.Resolved, want)
			}
		})
	}
}

// TestSessionContradictionRollsBack: input contradicting the specification
// answers 422 and leaves the session usable at its last consistent state.
func TestSessionContradictionRollsBack(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	state, resp := createSession(t, ts.URL, wireFromSpec(t, fixtures.GeorgeSpec(), "g"))
	if resp.StatusCode != http.StatusOK {
		t.Fatal("create failed")
	}
	// George's instance orders status working ≺ retired (ϕ1); claiming the
	// true status is "working" contradicts the specification.
	_, resp, data := postAnswer(t, ts.URL, state.Session, map[string]any{"status": "working"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var env map[string]*errorJSON
	if err := json.Unmarshal(data, &env); err != nil || env["error"].Code != codeContradiction {
		t.Fatalf("error envelope = %s", data)
	}
	// The session rolled back and still accepts the consistent answer.
	next, resp, data := postAnswer(t, ts.URL, state.Session, map[string]any{"status": "retired"})
	if resp.StatusCode != http.StatusOK || !next.Complete {
		t.Fatalf("recovery failed: status %d, %s", resp.StatusCode, data)
	}
}

// TestSessionRollbackPipelineReuse: a session's pipeline comes from the
// rule set's pool and goes back to it on DELETE, after a rolled-back and an
// accepted answer. A stateless resolve of another entity under the same
// rules that takes it back out of the pool must match a from-scratch
// resolution. The pool is a sync.Pool, which need not hand the pipeline
// back on every try, so the cycle repeats until a resolve is served from it.
func TestSessionRollbackPipelineReuse(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: -1})
	scratch, err := reference.FromScratch(fixtures.EdithSpec())
	if err != nil {
		t.Fatal(err)
	}
	sch := fixtures.PersonSchema()
	want := resultJSON{Valid: scratch.Valid, Resolved: map[string]any{}}
	for a, v := range scratch.Resolved {
		want.Resolved[sch.Name(a)] = v.AsJSON()
	}
	for _, v := range scratch.Tuple {
		want.Tuple = append(want.Tuple, v.AsJSON())
	}
	wj, _ := json.Marshal(want)
	var wantNorm resultJSON
	json.Unmarshal(wj, &wantNorm)

	reused := false
	for i := 0; i < 50 && !reused; i++ {
		state, resp := createSession(t, ts.URL, wireFromSpec(t, fixtures.GeorgeSpec(), "g"))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("create status %d", resp.StatusCode)
		}
		if _, resp, data := postAnswer(t, ts.URL, state.Session, map[string]any{"status": "working"}); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("contradicting answer: status %d: %s", resp.StatusCode, data)
		}
		if next, resp, data := postAnswer(t, ts.URL, state.Session, map[string]any{"status": "retired"}); resp.StatusCode != http.StatusOK || !next.Complete {
			t.Fatalf("accepted answer: status %d: %s", resp.StatusCode, data)
		}
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+state.Session, nil)
		dresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusNoContent {
			t.Fatalf("delete status %d", dresp.StatusCode)
		}

		hits := conflictres.PoolCounters().Hits
		resp, data := postJSON(t, ts.URL+"/v1/resolve", wireFromSpec(t, fixtures.EdithSpec(), "e"))
		reused = conflictres.PoolCounters().Hits > hits
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("resolve status %d: %s", resp.StatusCode, data)
		}
		var got resultJSON
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}
		if got.Valid != wantNorm.Valid || !reflect.DeepEqual(got.Resolved, wantNorm.Resolved) || !reflect.DeepEqual(got.Tuple, wantNorm.Tuple) {
			t.Fatalf("round %d (pipeline reused: %v): resolve %s, from scratch %s", i, reused, data, wj)
		}
	}
	if !reused {
		t.Fatal("no resolve took a pipeline out of the pool in 50 rounds")
	}
}

// TestSessionAnswerValidation covers the bad-request paths of the answer
// endpoint: empty answers, unknown attributes, non-scalar values.
func TestSessionAnswerValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	state, _ := createSession(t, ts.URL, wireFromSpec(t, fixtures.GeorgeSpec(), "g"))
	for body, wantCode := range map[string]string{
		`{"answers":{}}`:                   codeBadRequest,
		`{}`:                               codeBadRequest,
		`{"answers":{"bogus":"x"}}`:        codeBadEntity,
		`{"answers":{"status":[1,2]}}`:     codeBadEntity,
		`{"answers":{"status":true}}`:      codeBadEntity,
		`{"answers":{"status":"x"},"y":1}`: codeBadRequest, // unknown field
	} {
		resp, data := postJSON(t, ts.URL+"/v1/session/"+state.Session+"/answer", []byte(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, resp.StatusCode)
		}
		var env map[string]*errorJSON
		if err := json.Unmarshal(data, &env); err != nil || env["error"].Code != wantCode {
			t.Fatalf("%s: envelope %s, want code %s", body, data, wantCode)
		}
	}
}

// TestSessionTTLExpiry: a session idle past the TTL answers 404 on its next
// access and is counted in the expired metric.
func TestSessionTTLExpiry(t *testing.T) {
	s, ts := newTestServer(t, Config{SessionTTL: 30 * time.Millisecond, SessionSweep: time.Hour})
	state, _ := createSession(t, ts.URL, wireFromSpec(t, fixtures.EdithSpec(), "e"))
	if _, resp := getSession(t, ts.URL, state.Session); resp.StatusCode != http.StatusOK {
		t.Fatal("session must be live before the TTL")
	}
	time.Sleep(60 * time.Millisecond)
	if _, resp := getSession(t, ts.URL, state.Session); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expired session must answer 404")
	}
	if got := s.sessions.CountersSnapshot().Expired; got != 1 {
		t.Fatalf("expired counter = %d, want 1", got)
	}
	if got := s.sessions.Live(); got != 0 {
		t.Fatalf("live = %d, want 0", got)
	}
}

// TestSessionJanitorSweeps: expired sessions disappear without any access
// once the janitor runs.
func TestSessionJanitorSweeps(t *testing.T) {
	s, ts := newTestServer(t, Config{SessionTTL: 20 * time.Millisecond, SessionSweep: 5 * time.Millisecond})
	createSession(t, ts.URL, wireFromSpec(t, fixtures.EdithSpec(), "e"))
	deadline := time.Now().Add(2 * time.Second)
	for s.sessions.Live() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("janitor never swept the expired session")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.sessions.CountersSnapshot().Expired; got != 1 {
		t.Fatalf("expired counter = %d, want 1", got)
	}
}

// TestSessionLRUEviction: over SessionCap the least recently used session
// is evicted and answers 404; recently used ones survive.
func TestSessionLRUEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{SessionCap: 2})
	a, _ := createSession(t, ts.URL, wireFromSpec(t, fixtures.EdithSpec(), "a"))
	b, _ := createSession(t, ts.URL, wireFromSpec(t, fixtures.EdithSpec(), "b"))
	// Touch a so b becomes the LRU.
	if _, resp := getSession(t, ts.URL, a.Session); resp.StatusCode != http.StatusOK {
		t.Fatal("a must be live")
	}
	c, _ := createSession(t, ts.URL, wireFromSpec(t, fixtures.EdithSpec(), "c"))
	if _, resp := getSession(t, ts.URL, b.Session); resp.StatusCode != http.StatusNotFound {
		t.Fatal("LRU session b must be evicted")
	}
	for _, id := range []string{a.Session, c.Session} {
		if _, resp := getSession(t, ts.URL, id); resp.StatusCode != http.StatusOK {
			t.Fatalf("session %s must survive", id)
		}
	}
	if got := s.sessions.CountersSnapshot().Evicted; got != 1 {
		t.Fatalf("evicted counter = %d, want 1", got)
	}
	if got := s.sessions.CountersSnapshot().Created; got != 3 {
		t.Fatalf("created counter = %d, want 3", got)
	}
}

// holdUpserts installs a fault hook on reg that, once armed, parks the
// next upsert inside the registry with its entity lock held — an in-flight
// round, frozen — until Release. held is closed when an upsert parks.
// Install it before any traffic: the hook is read without a lock. A test
// that fails while an upsert is parked releases it on cleanup, so the
// test server can shut down.
type holdUpserts struct {
	armed   atomic.Bool
	held    chan struct{}
	release chan struct{}
	once    sync.Once
}

func newHoldUpserts(t *testing.T, reg *live.Registry) *holdUpserts {
	h := &holdUpserts{held: make(chan struct{}), release: make(chan struct{})}
	reg.SetFault(func() error {
		if h.armed.CompareAndSwap(true, false) {
			close(h.held)
			<-h.release
		}
		return nil
	})
	t.Cleanup(h.Release)
	return h
}

// Release lets the parked upsert continue.
func (h *holdUpserts) Release() { h.once.Do(func() { close(h.release) }) }

// answerAsync posts an answer round in the background, reporting its state
// and status on the returned channel.
func answerAsync(t *testing.T, url, id string, answers map[string]any) <-chan answerOutcome {
	out := make(chan answerOutcome, 1)
	go func() {
		body, _ := json.Marshal(map[string]any{"answers": answers})
		resp, err := http.Post(url+"/v1/session/"+id+"/answer", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			out <- answerOutcome{}
			return
		}
		defer resp.Body.Close()
		var state sessionStateJSON
		json.NewDecoder(resp.Body).Decode(&state)
		out <- answerOutcome{state, resp.StatusCode}
	}()
	return out
}

type answerOutcome struct {
	state  sessionStateJSON
	status int
}

// TestSessionAnswerConflict: an answer racing another apply on the same
// session answers 409 instead of queueing. The in-flight apply is a real
// answer round parked inside the registry with the entry lock held, which
// is exactly what the handler contends on.
func TestSessionAnswerConflict(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	hold := newHoldUpserts(t, s.sessions)
	state, _ := createSession(t, ts.URL, wireFromSpec(t, fixtures.GeorgeSpec(), "g"))
	hold.armed.Store(true)
	inflight := answerAsync(t, ts.URL, state.Session, map[string]any{"status": "retired"})
	<-hold.held
	_, resp, data := postAnswer(t, ts.URL, state.Session, map[string]any{"status": "retired"})
	hold.Release()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409: %s", resp.StatusCode, data)
	}
	var env map[string]*errorJSON
	if err := json.Unmarshal(data, &env); err != nil || env["error"].Code != codeSessionBusy {
		t.Fatalf("envelope = %s", data)
	}
	if got := <-inflight; got.status != http.StatusOK {
		t.Fatalf("in-flight apply: status %d", got.status)
	}
	// Once the racing apply finishes, the same request succeeds.
	next, resp, data := postAnswer(t, ts.URL, state.Session, map[string]any{"status": "retired"})
	if resp.StatusCode != http.StatusOK || !next.Complete {
		t.Fatalf("retry failed: status %d, %s", resp.StatusCode, data)
	}
}

// TestSessionConcurrentAnswersRace hammers one session with concurrent
// answer posts (run under -race in CI): every response must be 200, 409 or
// 422, and the session must end complete and consistent.
func TestSessionConcurrentAnswersRace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	state, _ := createSession(t, ts.URL, wireFromSpec(t, fixtures.GeorgeSpec(), "g"))
	var wg sync.WaitGroup
	codes := make(chan int, 24)
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ans := map[string]any{"status": "retired"}
			if i%3 == 1 {
				ans = map[string]any{"status": "working"} // contradicts: 422
			}
			body, _ := json.Marshal(map[string]any{"answers": ans})
			resp, err := http.Post(ts.URL+"/v1/session/"+state.Session+"/answer", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}(i)
	}
	wg.Wait()
	close(codes)
	for c := range codes {
		switch c {
		case http.StatusOK, http.StatusConflict, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	got, resp := getSession(t, ts.URL, state.Session)
	if resp.StatusCode != http.StatusOK || !got.Valid {
		t.Fatalf("final state: %+v (status %d)", got, resp.StatusCode)
	}
}

// TestSessionCreateInvalidSpec: creating a session on an invalid
// specification succeeds and reports Valid=false — invalidity is a data
// outcome the client needs to see, not a transport error.
func TestSessionCreateInvalidSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := fixtures.EdithSpec()
	spec.TI.MustOrder(spec.Schema().MustAttr("status"), 2, 0) // contradicts Σ
	state, resp := createSession(t, ts.URL, wireFromSpec(t, spec, "bad"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if state.Valid || state.Complete || state.Suggestion != nil {
		t.Fatalf("state = %+v", state)
	}
}

// TestSessionMetricsExposed: the store counters appear on /metrics.
func TestSessionMetricsExposed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createSession(t, ts.URL, wireFromSpec(t, fixtures.EdithSpec(), "e"))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	for _, want := range []string{
		"crserve_session_store_live 1",
		"crserve_session_store_created_total 1",
		"crserve_session_store_expired_total 0",
		"crserve_session_store_evicted_total 0",
		`crserve_requests_total{endpoint="session"}`,
	} {
		if !bytes.Contains([]byte(body), []byte(want)) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestJanitorCloseRace closes the server while answers are in flight and
// while the janitor is sweeping at a hot interval (run under -race in CI).
// Close must not race the sweep loop or in-flight handler work, must be
// idempotent, and must leave /readyz answering 503.
func TestJanitorCloseRace(t *testing.T) {
	s, ts := newTestServer(t, Config{
		SessionTTL:   10 * time.Millisecond,
		SessionSweep: time.Millisecond,
	})
	state, _ := createSession(t, ts.URL, wireFromSpec(t, fixtures.GeorgeSpec(), "g"))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				body, _ := json.Marshal(map[string]any{"answers": map[string]any{"status": "retired"}})
				resp, err := http.Post(ts.URL+"/v1/session/"+state.Session+"/answer", "application/json", bytes.NewReader(body))
				if err != nil {
					return // server may be mid-teardown; transport errors are fine here
				}
				resp.Body.Close()
			}
		}()
	}
	// Two concurrent Closes racing the sweeps and the answers above.
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			s.Close()
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped to 503 after Close")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestEvictionRacesHeldSession evicts a session whose entry lock is held by
// an in-flight apply (run under -race in CI). Eviction unlinks the entry
// from the registry under the registry lock without contending on the
// entry lock; the entry is closed only once the in-flight work drains, and
// that work completes against its private reference while new requests
// for the id answer 404.
func TestEvictionRacesHeldSession(t *testing.T) {
	s, ts := newTestServer(t, Config{SessionCap: 1})
	hold := newHoldUpserts(t, s.sessions)
	a, _ := createSession(t, ts.URL, wireFromSpec(t, fixtures.GeorgeSpec(), "a"))
	hold.armed.Store(true)
	// The in-flight apply, parked under the held lock while the registry
	// concurrently drops the entry.
	inflight := answerAsync(t, ts.URL, a.Session, map[string]any{"status": "retired"})
	<-hold.held
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		// Cap 1: each create evicts the previous LRU entry, including the
		// locked one.
		defer wg.Done()
		for i := 0; i < 4; i++ {
			createSession(t, ts.URL, wireFromSpec(t, fixtures.EdithSpec(), "filler"))
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.sessions.CountersSnapshot().Evicted < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the held session was never evicted")
		}
		time.Sleep(time.Millisecond)
	}
	hold.Release()
	applied := <-inflight
	wg.Wait()
	if _, resp := getSession(t, ts.URL, a.Session); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session must answer 404, got %d", resp.StatusCode)
	}
	if got := s.sessions.CountersSnapshot().Evicted; got < 1 {
		t.Fatalf("evicted counter = %d, want >= 1", got)
	}
	// The apply committed on the private reference even though the
	// registry dropped it: the entry's own state is consistent.
	if applied.status != http.StatusOK || !applied.state.Valid {
		t.Fatalf("apply on the evicted entry must have left it valid: status %d, %+v", applied.status, applied.state)
	}
}

// TestSessionCreateFailureLeavesNothing: a create rejected inside the
// registry, or one that times out while its build is still running, leaves
// no entry behind and no counted creation.
func TestSessionCreateFailureLeavesNothing(t *testing.T) {
	s, ts := newTestServer(t, Config{Timeout: 50 * time.Millisecond})
	hold := newHoldUpserts(t, s.sessions)
	body := wireFromSpec(t, fixtures.GeorgeSpec(), "g")

	// Timed out: the build is parked past the deadline, then lands.
	hold.armed.Store(true)
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/session", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-hold.held
	if status := <-done; status != http.StatusGatewayTimeout {
		t.Fatalf("parked create: status %d, want 504", status)
	}
	hold.Release()
	deadline := time.Now().Add(5 * time.Second)
	for s.sessions.Live() != 0 || s.sessions.CountersSnapshot().Created != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("timed-out create left live=%d created=%d", s.sessions.Live(), s.sessions.CountersSnapshot().Created)
		}
		time.Sleep(time.Millisecond)
	}

	// Failed: the registry refuses the delta before building anything.
	s2, ts2 := newTestServer(t, Config{})
	s2.sessions.SetFault(func() error { return errors.New("disk full") })
	if _, resp := createSession(t, ts2.URL, body); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("faulted create: status %d, want 503", resp.StatusCode)
	}
	if got := s2.sessions.Live(); got != 0 {
		t.Fatalf("faulted create left %d sessions", got)
	}
	if got := s2.sessions.CountersSnapshot().Created; got != 0 {
		t.Fatalf("faulted create counted: created = %d", got)
	}
}

// metricValue reads one unlabelled sample from /metrics.
func metricValue(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("metric %s missing:\n%s", name, body)
	return 0
}

// TestStatefulRequestsFeedSessionCounters: session creates and answers, and
// live-entity upserts, account their solver work in the
// crserve_session_*_total counters, as stateless resolves do.
func TestStatefulRequestsFeedSessionCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	state, _ := createSession(t, ts.URL, wireFromSpec(t, fixtures.GeorgeSpec(), "g"))
	if _, resp, data := postAnswer(t, ts.URL, state.Session, map[string]any{"status": "retired"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("answer: status %d: %s", resp.StatusCode, data)
	}
	for _, name := range []string{
		"crserve_session_rebuilds_total",
		"crserve_session_extends_total",
		"crserve_session_solves_total",
		"crserve_session_clauses_loaded_total",
	} {
		if v := metricValue(t, ts.URL, name); v <= 0 {
			t.Errorf("after create + answer: %s = %v, want > 0", name, v)
		}
	}

	// A single creating upsert builds once and extends nothing.
	_, ts2 := newTestServer(t, Config{})
	if _, resp := entityUpsert(t, ts2, "edith", entityWire(t, fixtures.EdithSpec(), []int{0, 1}, nil)); resp.StatusCode != http.StatusOK {
		t.Fatalf("upsert: status %d", resp.StatusCode)
	}
	for _, name := range []string{
		"crserve_session_rebuilds_total",
		"crserve_session_solves_total",
		"crserve_session_clauses_loaded_total",
	} {
		if v := metricValue(t, ts2.URL, name); v <= 0 {
			t.Errorf("after one upsert: %s = %v, want > 0", name, v)
		}
	}
}

// TestReadsOfBusyEntries: a session GET waits out an answer round in
// flight and returns the state that round left, while an entity GET that
// misses the cache on a busy entity answers 409 entity_busy rather than
// queue behind the write.
func TestReadsOfBusyEntries(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: -1})
	sessHold, liveHold := newHoldUpserts(t, s.sessions), newHoldUpserts(t, s.liveReg)

	state, _ := createSession(t, ts.URL, wireFromSpec(t, fixtures.GeorgeSpec(), "g"))
	sessHold.armed.Store(true)
	inflight := answerAsync(t, ts.URL, state.Session, map[string]any{"status": "retired"})
	<-sessHold.held
	read := make(chan sessionStateJSON, 1)
	go func() {
		var st sessionStateJSON
		resp, err := http.Get(ts.URL + "/v1/session/" + state.Session)
		if err != nil {
			t.Error(err)
		} else {
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
		}
		read <- st
	}()
	select {
	case st := <-read:
		t.Fatalf("GET returned while a round was in flight: %+v", st)
	case <-time.After(50 * time.Millisecond):
	}
	sessHold.Release()
	if got := <-inflight; got.status != http.StatusOK {
		t.Fatalf("in-flight answer: status %d", got.status)
	}
	if st := <-read; st.Interactions != 1 || !st.Complete {
		t.Fatalf("GET after the round = %+v, want the state it left", st)
	}

	spec := fixtures.EdithSpec()
	if _, resp := entityUpsert(t, ts, "edith", entityWire(t, spec, []int{0}, nil)); resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	liveHold.armed.Store(true)
	upserted := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/entity/edith/rows", "application/json",
			bytes.NewReader(entityWire(t, spec, []int{1}, nil)))
		if err != nil {
			t.Error(err)
			upserted <- 0
			return
		}
		resp.Body.Close()
		upserted <- resp.StatusCode
	}()
	<-liveHold.held
	resp, err := http.Get(ts.URL + "/v1/entity/edith")
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]*errorJSON
	json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	liveHold.Release()
	if resp.StatusCode != http.StatusConflict || env["error"] == nil || env["error"].Code != codeEntityBusy {
		t.Fatalf("GET of a busy entity: status %d, %v", resp.StatusCode, env)
	}
	if status := <-upserted; status != http.StatusOK {
		t.Fatalf("in-flight upsert: status %d", status)
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"conflictres/internal/fixtures"
)

// TestReadyzLifecycle: /readyz reports ready while the server is fresh,
// reflects rule-cache warmth after traffic, and flips to 503 after Close
// while /healthz stays green — the drain signal fleet health checkers key on.
func TestReadyzLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	get := func() (int, readyzJSON) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st readyzJSON
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, st
	}

	code, st := get()
	if code != http.StatusOK || !st.Ready || st.SessionJanitor != "running" {
		t.Fatalf("fresh server: code=%d state=%+v, want 200/ready/running", code, st)
	}
	if st.RuleCacheWarm || st.RuleCacheEntries != 0 {
		t.Fatalf("fresh server must report a cold rule cache: %+v", st)
	}

	// One create warms the rule cache and registers a live session.
	state, _ := createSession(t, ts.URL, wireFromSpec(t, fixtures.EdithSpec(), "e"))
	if state.Session == "" {
		t.Fatal("create failed")
	}
	code, st = get()
	if code != http.StatusOK || !st.RuleCacheWarm || st.RuleCacheEntries < 1 || st.LiveSessions != 1 {
		t.Fatalf("after traffic: code=%d state=%+v, want warm cache and 1 live session", code, st)
	}

	s.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		code, st = get()
		if code == http.StatusServiceUnavailable && st.SessionJanitor == "stopped" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after Close: code=%d state=%+v, want 503 with stopped janitor", code, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Ready {
		t.Fatalf("after Close: ready=true, want false")
	}
	// Liveness is unaffected: the process is still up, just draining.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after Close = %d, want 200", resp.StatusCode)
	}
}

// TestSnapshotRestore: sessions snapshotted from one server and restored
// into a fresh one keep their ids and replay to the exact same state —
// the rolling-restart path.
func TestSnapshotRestore(t *testing.T) {
	sA, tsA := newTestServer(t, Config{})

	// One mid-conversation session (George, one answer applied) and one
	// fresh session (Edith, no answers).
	g, _ := createSession(t, tsA.URL, wireFromSpec(t, fixtures.GeorgeSpec(), "george"))
	gNext, resp, data := postAnswer(t, tsA.URL, g.Session, map[string]any{"status": "retired"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("answer: %d %s", resp.StatusCode, data)
	}
	e, _ := createSession(t, tsA.URL, wireFromSpec(t, fixtures.EdithSpec(), "edith"))

	var buf bytes.Buffer
	if err := sA.SnapshotSessions(&buf); err != nil {
		t.Fatal(err)
	}

	sB, tsB := newTestServer(t, Config{})
	n, err := sB.RestoreSessions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("restored %d sessions, want 2", n)
	}

	// The original ids serve the original states on the new server.
	gB, respB := getSession(t, tsB.URL, g.Session)
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("george on restored server: %d", respB.StatusCode)
	}
	if !reflect.DeepEqual(gB, gNext) {
		t.Fatalf("george state diverged after restore:\n got %+v\nwant %+v", gB, gNext)
	}
	eB, respB := getSession(t, tsB.URL, e.Session)
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("edith on restored server: %d", respB.StatusCode)
	}
	if !reflect.DeepEqual(eB, e) {
		t.Fatalf("edith state diverged after restore:\n got %+v\nwant %+v", eB, e)
	}

	// The restored session is live, not a read-only replica: the next
	// answer behaves exactly as it would have on the original server.
	wantState, wantResp, _ := postAnswer(t, tsA.URL, g.Session, map[string]any{"job": "none"})
	gotState, gotResp, data := postAnswer(t, tsB.URL, g.Session, map[string]any{"job": "none"})
	if gotResp.StatusCode != wantResp.StatusCode {
		t.Fatalf("answer after restore: %d, original server said %d: %s",
			gotResp.StatusCode, wantResp.StatusCode, data)
	}
	if !reflect.DeepEqual(gotState, wantState) {
		t.Fatalf("post-restore apply diverged:\n got %+v\nwant %+v", gotState, wantState)
	}
}

// TestRestoreSkipsBadLines: a corrupt snapshot line is skipped and reported,
// not fatal to the remaining sessions.
func TestRestoreSkipsBadLines(t *testing.T) {
	sA, tsA := newTestServer(t, Config{})
	g, _ := createSession(t, tsA.URL, wireFromSpec(t, fixtures.GeorgeSpec(), "george"))
	var buf bytes.Buffer
	if err := sA.SnapshotSessions(&buf); err != nil {
		t.Fatal(err)
	}
	corrupt := "{not json}\n" + buf.String() + `{"id":"x","rules":{"schema":["a"]},"entity":{"id":"y"}}` + "\n"

	sB, tsB := newTestServer(t, Config{})
	n, err := sB.RestoreSessions(strings.NewReader(corrupt))
	if n != 1 {
		t.Fatalf("restored %d sessions, want 1", n)
	}
	if err == nil || !strings.Contains(err.Error(), "2 sessions skipped") {
		t.Fatalf("error = %v, want 2 sessions skipped", err)
	}
	if _, resp := getSession(t, tsB.URL, g.Session); resp.StatusCode != http.StatusOK {
		t.Fatal("the good session must have been restored")
	}
}

// getBody fetches a URL and returns its status and raw body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestSessionSnapshotOneFormat pins sessions to the registry's snapshot
// format: a session line holds key, rules, mode and deltas — the seed (the
// entity's rows and entityId), then one delta per accepted answer round,
// with a rejected (422) round absent. The session restores under its id
// with a byte-identical state body, beside a live-entity file restored into
// the same server, and a line in the pre-registry session format is
// skipped and counted, not fatal.
func TestSessionSnapshotOneFormat(t *testing.T) {
	sA, tsA := newTestServer(t, Config{})
	g, _ := createSession(t, tsA.URL, wireFromSpec(t, fixtures.GeorgeSpec(), "george"))
	for _, round := range []struct {
		answers map[string]any
		status  int
	}{
		{map[string]any{"status": "retired"}, http.StatusOK},
		{map[string]any{"status": "working"}, http.StatusUnprocessableEntity},
		{map[string]any{"job": "veteran"}, http.StatusOK},
	} {
		if _, resp, data := postAnswer(t, tsA.URL, g.Session, round.answers); resp.StatusCode != round.status {
			t.Fatalf("answer %v: status %d, want %d: %s", round.answers, resp.StatusCode, round.status, data)
		}
	}
	if _, resp := entityUpsert(t, tsA, "edith", entityWire(t, fixtures.EdithSpec(), []int{0, 1}, nil)); resp.StatusCode != http.StatusOK {
		t.Fatalf("entity upsert: status %d", resp.StatusCode)
	}

	var sessions, entities bytes.Buffer
	if err := sA.SnapshotSessions(&sessions); err != nil {
		t.Fatal(err)
	}
	if err := sA.SnapshotLiveEntities(&entities); err != nil {
		t.Fatal(err)
	}
	var line snapshotJSON
	if err := json.Unmarshal(sessions.Bytes(), &line); err != nil {
		t.Fatalf("session line %s: %v", sessions.Bytes(), err)
	}
	if line.Key != g.Session || len(line.Rules) == 0 || line.Mode != "sat" {
		t.Fatalf("session line header: key %q mode %q rules %s", line.Key, line.Mode, line.Rules)
	}
	if len(line.Deltas) != 3 {
		t.Fatalf("session log has %d deltas, want seed + 2 accepted rounds: %s", len(line.Deltas), sessions.Bytes())
	}
	seed := line.Deltas[0]
	if seed.Kind != answersKind || seed.EntityID != "george" || len(seed.Rows) != 3 || seed.Answers != nil {
		t.Fatalf("seed delta = %+v", seed)
	}
	for i, want := range []string{`{"status":"retired"}`, `{"job":"veteran"}`} {
		d := line.Deltas[i+1]
		got, _ := json.Marshal(d.Answers)
		if d.Kind != answersKind || len(d.Rows) != 0 || string(got) != want {
			t.Fatalf("round %d delta = %+v, answers %s, want %s", i+1, d, got, want)
		}
	}

	// Both files restore side by side into one fresh server, after a line
	// written by an older build.
	old := `{"id":"0123","rules":{"schema":["a"]},"entity":{"id":"e","tuples":[["x"]]},"answers":[{"a":"x"}]}` + "\n"
	sB, tsB := newTestServer(t, Config{})
	n, err := sB.RestoreSessions(strings.NewReader(old + sessions.String()))
	if n != 1 || err == nil || !strings.Contains(err.Error(), "1 sessions skipped") {
		t.Fatalf("session restore: n=%d err=%v, want 1 restored and 1 skipped", n, err)
	}
	if n, err := sB.RestoreLiveEntities(&entities); n != 1 || err != nil {
		t.Fatalf("live restore: n=%d err=%v", n, err)
	}
	statusA, bodyA := getBody(t, tsA.URL+"/v1/session/"+g.Session)
	statusB, bodyB := getBody(t, tsB.URL+"/v1/session/"+g.Session)
	if statusA != http.StatusOK || statusB != http.StatusOK || !bytes.Equal(bodyA, bodyB) {
		t.Fatalf("session diverged across restore:\n got %d %s\nwant %d %s", statusB, bodyB, statusA, bodyA)
	}
	if !bytes.Contains(bodyB, []byte(`"entityId":"george"`)) || !bytes.Contains(bodyB, []byte(`"interactions":2`)) {
		t.Fatalf("restored session state = %s, want entityId george after 2 interactions", bodyB)
	}
	if a, b := liveWireState(t, sA, "edith"), liveWireState(t, sB, "edith"); a != b {
		t.Fatalf("live entity diverged across restore:\n got %s\nwant %s", b, a)
	}
	if sB.sessions.Live() != 1 || sB.liveReg.Live() != 1 {
		t.Fatalf("restored sessions=%d entities=%d, want 1 each", sB.sessions.Live(), sB.liveReg.Live())
	}
}

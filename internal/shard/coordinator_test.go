package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"conflictres/internal/server"
)

// The fixtures mirror the server test suite's Edith wire forms (the paper's
// running example); the shard package cannot reach those unexported helpers,
// so it carries its own copies.

func edithWireRules() map[string]any {
	return map[string]any{
		"schema": []string{"name", "status", "job", "kids", "city", "AC", "zip", "county"},
		"currency": []string{
			`t1[status] = "working" & t2[status] = "retired" -> t1 <[status] t2`,
			`t1[status] = "retired" & t2[status] = "deceased" -> t1 <[status] t2`,
			`t1[kids] < t2[kids] -> t1 <[kids] t2`,
			`t1 <[status] t2 -> t1 <[job] t2`,
			`t1 <[status] t2 -> t1 <[AC] t2`,
			`t1 <[status] t2 -> t1 <[zip] t2`,
			`t1 <[city] t2 & t1 <[zip] t2 -> t1 <[county] t2`,
		},
		"cfds": []string{
			`AC = "213" => city = "LA"`,
			`AC = "212" => city = "NY"`,
		},
	}
}

func marshalLine(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func edithEntity(i int) map[string]any {
	name := fmt.Sprintf("Edith %d", i)
	return map[string]any{"id": fmt.Sprintf("e%d", i), "tuples": []any{
		[]any{name, "working", "nurse", i % 4, "NY", "212", "10036", "Manhattan"},
		[]any{name, "retired", "n/a", i%4 + 3, "SFC", "415", "94924", "Dogtown"},
		[]any{name, "deceased", "n/a", nil, "LA", "213", "90058", "Vermont"},
	}}
}

func edithResolveBody(t testing.TB, i int) []byte {
	t.Helper()
	m := edithWireRules()
	m["entity"] = edithEntity(i)
	return marshalLine(t, m)
}

// edithBatchBody renders a batch request: rule-set header plus n entity lines.
func edithBatchBody(t testing.TB, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(marshalLine(t, edithWireRules()))
	buf.WriteByte('\n')
	for i := 0; i < n; i++ {
		buf.Write(marshalLine(t, edithEntity(i)))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// edithDatasetBody renders a dataset request: header with key columns plus
// three object rows per entity, rows of one entity adjacent (sorted input).
func edithDatasetBody(t testing.TB, n int) []byte {
	t.Helper()
	hdr := edithWireRules()
	hdr["key"] = []string{"name"}
	hdr["sorted"] = true
	var buf bytes.Buffer
	buf.Write(marshalLine(t, hdr))
	buf.WriteByte('\n')
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("Edith %d", i)
		rows := []map[string]any{
			{"name": name, "status": "working", "job": "nurse", "kids": i % 4, "city": "NY", "AC": "212", "zip": "10036", "county": "Manhattan"},
			{"name": name, "status": "retired", "job": "n/a", "kids": i%4 + 3, "city": "SFC", "AC": "415", "zip": "94924", "county": "Dogtown"},
			{"name": name, "status": "deceased", "job": "n/a", "kids": nil, "city": "LA", "AC": "213", "zip": "90058", "county": "Vermont"},
		}
		for _, row := range rows {
			buf.Write(marshalLine(t, row))
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

// newBackendURL starts a real in-process crserve backend.
func newBackendURL(t testing.TB) string {
	t.Helper()
	s := server.New(server.Config{})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// newShard builds a coordinator over urls and mounts it on httptest. The
// health checker is parked (1h interval) so tests control liveness directly.
func newShard(t testing.TB, urls []string, mut func(*Config)) (*Coordinator, string) {
	t.Helper()
	cfg := Config{Backends: urls, HealthInterval: time.Hour}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts.URL
}

// dyingBackend answers health probes normally but truncates every POST: it
// declares a large Content-Length, writes a partial line, and returns, so
// net/http kills the connection and the coordinator's read fails mid-stream.
func dyingBackend(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Content-Length", "1048576")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(`{"id":"trunc`))
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

func postJSON(t testing.TB, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// postNDJSON posts an NDJSON stream and returns the non-empty response lines.
func postNDJSON(t testing.TB, url string, body []byte) (*http.Response, []string) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(l) != "" {
			lines = append(lines, l)
		}
	}
	return resp, lines
}

// resultLine mirrors one batch result line for the tests to inspect.
type resultLine struct {
	ID       string                     `json:"id,omitempty"`
	Index    *int                       `json:"index,omitempty"`
	Rows     int                        `json:"rows,omitempty"`
	Valid    bool                       `json:"valid"`
	Resolved map[string]json.RawMessage `json:"resolved,omitempty"`
	Tuple    []json.RawMessage          `json:"tuple,omitempty"`
	Rounds   int                        `json:"rounds,omitempty"`
	Timing   json.RawMessage            `json:"timing,omitempty"`
	Cached   bool                       `json:"cached,omitempty"`
	Error    *errorJSON                 `json:"error,omitempty"`
}

// collectBatch indexes batch result lines by client entity index, failing on
// duplicates or unattributed lines.
func collectBatch(t *testing.T, lines []string) map[int]resultLine {
	t.Helper()
	out := make(map[int]resultLine, len(lines))
	for _, l := range lines {
		var res resultLine
		if err := json.Unmarshal([]byte(l), &res); err != nil {
			t.Fatalf("bad result line %q: %v", l, err)
		}
		if res.Index == nil {
			t.Fatalf("result line without index: %q", l)
		}
		if _, dup := out[*res.Index]; dup {
			t.Fatalf("duplicate result for index %d", *res.Index)
		}
		out[*res.Index] = res
	}
	return out
}

func requireSameResults(t *testing.T, n int, sharded, single map[int]resultLine) {
	t.Helper()
	if len(sharded) != n || len(single) != n {
		t.Fatalf("got %d sharded / %d single results, want %d", len(sharded), len(single), n)
	}
	for i := 0; i < n; i++ {
		sh, si := sharded[i], single[i]
		if sh.Error != nil || si.Error != nil {
			t.Fatalf("entity %d errored: sharded=%+v single=%+v", i, sh.Error, si.Error)
		}
		if sh.ID != si.ID || sh.Valid != si.Valid || sh.Rounds != si.Rounds {
			t.Fatalf("entity %d envelope mismatch: sharded=%+v single=%+v", i, sh, si)
		}
		if !reflect.DeepEqual(sh.Resolved, si.Resolved) {
			t.Fatalf("entity %d resolved mismatch:\n sharded %v\n single  %v", i, sh.Resolved, si.Resolved)
		}
		if !reflect.DeepEqual(sh.Tuple, si.Tuple) {
			t.Fatalf("entity %d tuple mismatch:\n sharded %v\n single  %v", i, sh.Tuple, si.Tuple)
		}
	}
}

// TestShardResolveParity sends distinct entities through the coordinator
// until both backends have served one (the ring places keys by hash, and
// the backends' random ports move the ring, so a fixed handful of keys can
// all land on one backend), checking every entity against a single node.
func TestShardResolveParity(t *testing.T) {
	const maxEntities = 64
	urls := []string{newBackendURL(t), newBackendURL(t)}
	c, curl := newShard(t, urls, nil)
	single := newBackendURL(t)

	spread := func() int {
		n := 0
		for _, b := range c.backends {
			if b.requests.Load() > 0 {
				n++
			}
		}
		return n
	}
	for i := 0; i < maxEntities && (i < 6 || spread() < 2); i++ {
		body := edithResolveBody(t, i)
		resp, got := postJSON(t, curl+"/v1/resolve", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("entity %d: coordinator status %d: %s", i, resp.StatusCode, got)
		}
		resp, want := postJSON(t, single+"/v1/resolve", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("entity %d: single-node status %d: %s", i, resp.StatusCode, want)
		}
		var gm, wm map[string]json.RawMessage
		if err := json.Unmarshal(got, &gm); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &wm); err != nil {
			t.Fatal(err)
		}
		for _, field := range []string{"valid", "resolved", "tuple", "rounds"} {
			if !bytes.Equal(gm[field], wm[field]) {
				t.Fatalf("entity %d field %s: coordinator %s, single node %s", i, field, gm[field], wm[field])
			}
		}
	}
	if n := spread(); n != 2 {
		t.Fatalf("resolve traffic reached %d of 2 backends after %d entities", n, maxEntities)
	}
}

func TestShardValidate(t *testing.T) {
	_, curl := newShard(t, []string{newBackendURL(t), newBackendURL(t)}, nil)
	resp, data := postJSON(t, curl+"/v1/validate", edithResolveBody(t, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Valid *bool `json:"valid"`
	}
	if err := json.Unmarshal(data, &out); err != nil || out.Valid == nil {
		t.Fatalf("bad validate body %s (err %v)", data, err)
	}
	if !*out.Valid {
		t.Fatalf("edith entity should be valid: %s", data)
	}
}

func TestShardBatchParity(t *testing.T) {
	const n = 24
	c, curl := newShard(t, []string{newBackendURL(t), newBackendURL(t)}, func(cfg *Config) {
		cfg.ChunkEntities = 8
		cfg.Pipeline = 2
	})
	single := newBackendURL(t)

	body := edithBatchBody(t, n)
	resp, lines := postNDJSON(t, curl+"/v1/resolve/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator status %d", resp.StatusCode)
	}
	sharded := collectBatch(t, lines)
	resp, lines = postNDJSON(t, single+"/v1/resolve/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-node status %d", resp.StatusCode)
	}
	requireSameResults(t, n, sharded, collectBatch(t, lines))

	for i, b := range c.backends {
		if b.requests.Load() == 0 {
			t.Fatalf("backend %d received no sub-batches", i)
		}
		if b.errors.Load() != 0 || b.retries.Load() != 0 {
			t.Fatalf("healthy run recorded errors/retries on backend %d", i)
		}
	}
}

func TestShardBatchBadRulesRejectedLocally(t *testing.T) {
	c, curl := newShard(t, []string{newBackendURL(t)}, nil)
	body := []byte(`{"schema":["a"],"currency":["not a rule"]}` + "\n" + `{"id":"x","tuples":[["v"]]}` + "\n")
	resp, data := postJSON(t, curl+"/v1/resolve/batch", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), codeBadRules) {
		t.Fatalf("want %s envelope, got %s", codeBadRules, data)
	}
	if got := c.backends[0].requests.Load(); got != 0 {
		t.Fatalf("bad header leaked %d requests to the backend", got)
	}
}

func TestShardBatchFailover(t *testing.T) {
	const n = 24
	dying := dyingBackend(t)
	healthy := newBackendURL(t)
	c, curl := newShard(t, []string{dying, healthy}, func(cfg *Config) {
		cfg.ChunkEntities = 6
	})
	single := newBackendURL(t)

	body := edithBatchBody(t, n)
	resp, lines := postNDJSON(t, curl+"/v1/resolve/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator status %d", resp.StatusCode)
	}
	sharded := collectBatch(t, lines)
	resp, lines = postNDJSON(t, single+"/v1/resolve/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-node status %d", resp.StatusCode)
	}
	// Every entity — including those first routed at the dying backend —
	// completes correctly via retry on the sibling.
	requireSameResults(t, n, sharded, collectBatch(t, lines))

	dyingB, healthyB := c.backends[0], c.backends[1]
	if dyingB.errors.Load() == 0 {
		t.Fatal("dying backend recorded no transport errors")
	}
	if dyingB.up.Load() {
		t.Fatal("dying backend should be marked down")
	}
	if healthyB.retries.Load() == 0 {
		t.Fatal("healthy backend recorded no retried work")
	}

	// One backend down, one up: the coordinator stays ready and /metrics
	// exposes the asymmetry.
	hresp, err := http.Get(curl + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with one live backend answered %d", hresp.StatusCode)
	}
	mresp, err := http.Get(curl + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mdata, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		fmt.Sprintf("crshard_backend_up{backend=%q} 0", dying),
		fmt.Sprintf("crshard_backend_up{backend=%q} 1", healthy),
		fmt.Sprintf("crshard_backend_retries_total{backend=%q} %d", healthy, healthyB.retries.Load()),
		`crshard_requests_total{endpoint="batch"} 1`,
	} {
		if !strings.Contains(string(mdata), want) {
			t.Fatalf("metrics missing %q:\n%s", want, mdata)
		}
	}
}

// collectDataset splits dataset response lines into per-key result lines and
// the summary, failing on duplicate keys.
func collectDataset(t *testing.T, lines []string) (map[string]string, datasetSummaryJSON) {
	t.Helper()
	results := make(map[string]string, len(lines))
	var sum datasetSummaryJSON
	sawSummary := false
	for _, l := range lines {
		var dl dsLine
		if err := json.Unmarshal([]byte(l), &dl); err != nil {
			t.Fatalf("bad dataset line %q: %v", l, err)
		}
		if dl.Summary != nil {
			if sawSummary {
				t.Fatalf("two summary lines")
			}
			sawSummary = true
			if err := json.Unmarshal(dl.Summary, &sum); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if _, dup := results[dl.ID]; dup {
			t.Fatalf("duplicate result for key %q", dl.ID)
		}
		results[dl.ID] = l
	}
	if !sawSummary {
		t.Fatal("no summary line")
	}
	return results, sum
}

func TestShardDatasetParity(t *testing.T) {
	const n = 12
	c, curl := newShard(t, []string{newBackendURL(t), newBackendURL(t)}, nil)
	single := newBackendURL(t)

	body := edithDatasetBody(t, n)
	resp, lines := postNDJSON(t, curl+"/v1/resolve/dataset", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator status %d", resp.StatusCode)
	}
	sharded, shardedSum := collectDataset(t, lines)
	resp, lines = postNDJSON(t, single+"/v1/resolve/dataset", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-node status %d", resp.StatusCode)
	}
	base, baseSum := collectDataset(t, lines)

	if len(sharded) != n || len(base) != n {
		t.Fatalf("got %d sharded / %d single results, want %d", len(sharded), len(base), n)
	}
	// Result lines are relayed verbatim, so after keying by entity the
	// merged output must be byte-identical to the single-node run.
	for key, want := range base {
		if got, ok := sharded[key]; !ok {
			t.Fatalf("key %q missing from sharded output", key)
		} else if got != want {
			t.Fatalf("key %q differs:\n sharded %s\n single  %s", key, got, want)
		}
	}
	if shardedSum.Rows != baseSum.Rows || shardedSum.Entities != baseSum.Entities ||
		shardedSum.Resolved != baseSum.Resolved || shardedSum.Invalid != baseSum.Invalid ||
		shardedSum.Failed != baseSum.Failed {
		t.Fatalf("summary mismatch: sharded %+v, single %+v", shardedSum, baseSum)
	}
	if shardedSum.Dropped != 0 {
		t.Fatalf("healthy fleet dropped %d rows", shardedSum.Dropped)
	}
	var spread int
	for _, b := range c.backends {
		if b.requests.Load() > 0 {
			spread++
		}
	}
	if spread != 2 {
		t.Fatalf("dataset partitions reached %d of 2 backends", spread)
	}
}

func TestShardDatasetFailover(t *testing.T) {
	const n = 12
	dying := dyingBackend(t)
	c, curl := newShard(t, []string{dying, newBackendURL(t)}, nil)
	single := newBackendURL(t)

	body := edithDatasetBody(t, n)
	resp, lines := postNDJSON(t, curl+"/v1/resolve/dataset", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator status %d", resp.StatusCode)
	}
	sharded, sum := collectDataset(t, lines)
	resp, lines = postNDJSON(t, single+"/v1/resolve/dataset", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-node status %d", resp.StatusCode)
	}
	base, _ := collectDataset(t, lines)

	// The dying backend's partition moves wholesale to the sibling: every
	// entity still appears exactly once, matching the single-node bytes.
	if len(sharded) != n {
		t.Fatalf("got %d results, want %d", len(sharded), n)
	}
	for key, want := range base {
		if sharded[key] != want {
			t.Fatalf("key %q differs after failover:\n sharded %s\n single  %s", key, sharded[key], want)
		}
	}
	if sum.Entities != n || sum.Dropped != 0 {
		t.Fatalf("summary does not reconcile after failover: %+v", sum)
	}
	if c.backends[0].errors.Load() == 0 || c.backends[0].up.Load() {
		t.Fatal("dying backend was not marked down")
	}
	if c.backends[1].retries.Load() == 0 {
		t.Fatal("sibling recorded no retried partition")
	}
}

func TestShardSessionAffinity(t *testing.T) {
	c, curl := newShard(t, []string{newBackendURL(t), newBackendURL(t)}, nil)

	resp, data := postJSON(t, curl+"/v1/session", edithResolveBody(t, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create status %d: %s", resp.StatusCode, data)
	}
	var state map[string]any
	if err := json.Unmarshal(data, &state); err != nil {
		t.Fatal(err)
	}
	sid, _ := state["session"].(string)
	tag, inner, ok := strings.Cut(sid, ".")
	if !ok || inner == "" {
		t.Fatalf("session id %q is not fleet-tagged", sid)
	}
	owner := c.byTag[tag]
	if owner == nil {
		t.Fatalf("session tag %q names no backend", tag)
	}
	if want := c.backends[c.ring.Owner("e1")]; owner != want {
		t.Fatalf("session pinned to %s, ring owner is %s", owner.url, want.url)
	}

	// GET proxies to the pinned backend and keeps the fleet id.
	gresp, err := http.Get(curl + "/v1/session/" + sid)
	if err != nil {
		t.Fatal(err)
	}
	gdata, _ := io.ReadAll(gresp.Body)
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("get status %d: %s", gresp.StatusCode, gdata)
	}
	var got map[string]any
	if err := json.Unmarshal(gdata, &got); err != nil {
		t.Fatal(err)
	}
	if got["session"] != sid {
		t.Fatalf("get returned session %v, want %q", got["session"], sid)
	}

	// DELETE through the proxy, then the id is dead fleet-wide: GET and the
	// /answer route both relay the backend's 404.
	req, _ := http.NewRequest(http.MethodDelete, curl+"/v1/session/"+sid, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	gresp, err = http.Get(curl + "/v1/session/" + sid)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete answered %d", gresp.StatusCode)
	}
	aresp, adata := postJSON(t, curl+"/v1/session/"+sid+"/answer", []byte(`{"answers":{"status":"deceased"}}`))
	if aresp.StatusCode != http.StatusNotFound {
		t.Fatalf("answer after delete answered %d: %s", aresp.StatusCode, adata)
	}

	// An id whose tag names no fleet backend never leaves the coordinator.
	gresp, err = http.Get(curl + "/v1/session/ffffffff.whatever")
	if err != nil {
		t.Fatal(err)
	}
	gdata, _ = io.ReadAll(gresp.Body)
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound || !strings.Contains(string(gdata), codeBadSessionID) {
		t.Fatalf("unknown tag answered %d: %s", gresp.StatusCode, gdata)
	}
}

// hungBackend accepts connections and never answers on them.
func hungBackend(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, conn)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
		for _, conn := range conns {
			conn.Close()
		}
	})
	return "http://" + ln.Addr().String()
}

func TestShardSessionFollowUpTimeout(t *testing.T) {
	const timeout = 100 * time.Millisecond
	c, curl := newShard(t, []string{hungBackend(t)}, func(cfg *Config) {
		cfg.Timeout = timeout
	})
	sid := c.backends[0].tag + ".s1"
	client := &http.Client{Timeout: 20 * timeout}
	for _, req := range []struct{ method, path, body string }{
		{http.MethodGet, "/v1/session/" + sid, ""},
		{http.MethodPost, "/v1/session/" + sid + "/answer", `{"answers":{"status":"deceased"}}`},
		{http.MethodDelete, "/v1/session/" + sid, ""},
	} {
		hreq, err := http.NewRequest(req.method, curl+req.path, strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(hreq)
		if err != nil {
			t.Fatalf("%s %s: no answer from the coordinator: %v", req.method, req.path, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway || !strings.Contains(string(data), codeBackendDown) {
			t.Fatalf("%s %s to a hung backend answered %d: %s", req.method, req.path, resp.StatusCode, data)
		}
	}
}

// TestShardHungBackendFailsOver: a per-hop Timeout expiry is the backend's
// fault, not the caller's. A keyed resolve and a session create owned by a
// hung backend are answered by its sibling, and the hung one is marked down.
func TestShardHungBackendFailsOver(t *testing.T) {
	const timeout = 100 * time.Millisecond
	c, curl := newShard(t, []string{hungBackend(t), newBackendURL(t)}, func(cfg *Config) {
		cfg.Timeout = timeout
	})
	i := 0
	for c.ring.Owners(fmt.Sprintf("e%d", i), 1)[0] != 0 {
		i++
	}
	for _, path := range []string{"/v1/resolve", "/v1/session"} {
		c.backends[0].up.Store(true)
		resp, data := postJSON(t, curl+path, edithResolveBody(t, i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s owned by a hung backend answered %d: %s", path, resp.StatusCode, data)
		}
		if c.backends[0].up.Load() {
			t.Fatalf("%s: a per-hop timeout left the hung backend up", path)
		}
	}
}

// TestShardClientCancelKeepsBackendUp: a client that gives up before a
// slow but healthy backend answers must not cost that backend its place on
// the live set. The hop dies with the client's request, which is no
// transport failure of the backend's.
func TestShardClientCancelKeepsBackendUp(t *testing.T) {
	s := server.New(server.Config{})
	t.Cleanup(s.Close)
	h := s.Handler()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			time.Sleep(500 * time.Millisecond)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)

	c, err := New(Config{Backends: []string{slow.URL}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	handled := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c.Handler().ServeHTTP(w, r)
		if r.URL.Path == "/v1/resolve" {
			handled <- struct{}{}
		}
	}))
	t.Cleanup(ts.Close)

	client := &http.Client{Timeout: 50 * time.Millisecond}
	if resp, err := client.Post(ts.URL+"/v1/resolve", "application/json", bytes.NewReader(edithResolveBody(t, 0))); err == nil {
		resp.Body.Close()
		t.Fatalf("the client should have given up, got %d", resp.StatusCode)
	}
	select {
	case <-handled:
	case <-time.After(5 * time.Second):
		t.Fatal("the coordinator never finished the abandoned resolve")
	}
	if !c.backends[0].up.Load() {
		t.Fatal("a client giving up marked a healthy backend down")
	}
	want := fmt.Sprintf("crshard_backend_errors_total{backend=%q} 0\n", slow.URL)
	if m := getBody(t, ts.URL+"/metrics"); !strings.Contains(m, want) {
		t.Fatalf("a client giving up counted a backend error; want %q in:\n%s", want, m)
	}
}

func TestShardSessionCreateRetryBudget(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
		urls = append(urls, dead.URL)
		dead.Close() // connection refused from now on
	}
	// The first backoff (at least half of RetryBase) outlasts the budget, so
	// the create is shed before it reaches the second backend.
	_, curl := newShard(t, urls, func(cfg *Config) {
		cfg.RetryBase = time.Second
		cfg.RetryBudget = 10 * time.Millisecond
	})
	resp, data := postJSON(t, curl+"/v1/session", edithResolveBody(t, 1))
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(data), codeRetryBudget) {
		t.Fatalf("session create on a failing fleet answered %d: %s", resp.StatusCode, data)
	}
	if m := getBody(t, curl+"/metrics"); !strings.Contains(m, "crshard_retry_budget_exhausted_total 1\n") {
		t.Fatalf("retry budget exhaustion not counted:\n%s", m)
	}
}

func TestShardReadyzTracksFleet(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // connection refused from now on

	_, curl := newShard(t, []string{deadURL}, nil)

	// Backends start optimistically up; the first request discovers the
	// truth, exhausts the (one-node) fleet, and answers no_backend.
	resp, data := postJSON(t, curl+"/v1/resolve", edithResolveBody(t, 0))
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(data), codeNoBackend) {
		t.Fatalf("resolve against dead fleet answered %d: %s", resp.StatusCode, data)
	}

	rresp, err := http.Get(curl + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rdata, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(rdata), `"ready":false`) {
		t.Fatalf("readyz with dead fleet answered %d: %s", rresp.StatusCode, rdata)
	}
	hresp, err := http.Get(curl + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator liveness answered %d", hresp.StatusCode)
	}
}

func TestShardHealthCheckerRevivesBackend(t *testing.T) {
	c, curl := newShard(t, []string{newBackendURL(t)}, func(cfg *Config) {
		cfg.HealthInterval = 20 * time.Millisecond
	})
	c.markDown(c.backends[0])

	deadline := time.Now().Add(5 * time.Second)
	for !c.backends[0].up.Load() {
		if time.Now().After(deadline) {
			t.Fatal("health checker never revived a healthy backend")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, data := postJSON(t, curl+"/v1/resolve", edithResolveBody(t, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resolve after revival answered %d: %s", resp.StatusCode, data)
	}
}

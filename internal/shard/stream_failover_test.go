package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"conflictres/internal/server"
)

// recordingBackend is a real crserve that keeps, per dataset request it
// answers, how many rows of each entity (by name) the request carried.
type recordingBackend struct {
	url string
	mu  sync.Mutex
	got []map[string]int
}

func newRecordingBackend(t *testing.T) *recordingBackend {
	t.Helper()
	s := server.New(server.Config{})
	t.Cleanup(s.Close)
	h := s.Handler()
	rb := &recordingBackend{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/resolve/dataset" {
			body, _ := io.ReadAll(r.Body)
			rb.mu.Lock()
			rb.got = append(rb.got, datasetRowsByName(t, body))
			rb.mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	rb.url = ts.URL
	return rb
}

// requests returns the per-request row counts recorded so far.
func (rb *recordingBackend) requests() []map[string]int {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return append([]map[string]int(nil), rb.got...)
}

// datasetRowsByName counts a dataset request body's rows per entity name.
func datasetRowsByName(t *testing.T, body []byte) map[string]int {
	t.Helper()
	rows := make(map[string]int)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	sc.Scan() // header
	for sc.Scan() {
		var row struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Errorf("bad dataset row %q: %v", sc.Bytes(), err)
			continue
		}
		rows[row.Name]++
	}
	return rows
}

// requireDatasetMatchesSingle checks that every entity appears exactly once
// in the fleet's output, byte-identical to one crserve's answer.
func requireDatasetMatchesSingle(t *testing.T, n int, lines []string, body []byte) datasetSummaryJSON {
	t.Helper()
	sharded, sum := collectDataset(t, lines)
	resp, single := postNDJSON(t, newBackendURL(t)+"/v1/resolve/dataset", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-node status %d", resp.StatusCode)
	}
	base, _ := collectDataset(t, single)
	if len(sharded) != n || len(base) != n {
		t.Fatalf("got %d sharded / %d single results, want %d", len(sharded), len(base), n)
	}
	for key, want := range base {
		if sharded[key] != want {
			t.Fatalf("key %q differs:\n sharded %s\n single  %s", key, sharded[key], want)
		}
	}
	if sum.Entities != int64(n) || sum.Dropped != 0 {
		t.Fatalf("summary does not reconcile: %+v", sum)
	}
	return sum
}

// TestShardStreamRetryBudget: both streams give up under the retry budget
// like keyed requests do. With every backend dying, a first backoff of at
// least half a second and a 10ms budget, each wave is shed in-band with
// retry_budget_exhausted as soon as the budget runs out, and the shedding
// is counted.
func TestShardStreamRetryBudget(t *testing.T) {
	c, curl := newShard(t, []string{dyingBackend(t), dyingBackend(t)}, func(cfg *Config) {
		cfg.RetryBase = time.Second
		cfg.RetryBudget = 10 * time.Millisecond
	})
	const n = 8 // below ChunkEntities: every entity is routed before a hop fails
	shed := func() int64 { return c.met.retryBudgetExhausted.Load() }

	start := time.Now()
	resp, lines := postNDJSON(t, curl+"/v1/resolve/batch", edithBatchBody(t, n))
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("batch over a dying fleet took %v", took)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	results := collectBatch(t, lines)
	for i := 0; i < n; i++ {
		if res, ok := results[i]; !ok || res.Error == nil || res.Error.Code != codeRetryBudget {
			t.Fatalf("entity %d answered %+v, want %s", i, res.Error, codeRetryBudget)
		}
	}
	afterBatch := shed()
	if afterBatch == 0 {
		t.Fatal("batch budget exhaustion not counted")
	}

	for _, b := range c.backends {
		b.up.Store(true)
	}
	start = time.Now()
	resp, lines = postNDJSON(t, curl+"/v1/resolve/dataset", edithDatasetBody(t, n))
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("dataset over a dying fleet took %v", took)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dataset status %d", resp.StatusCode)
	}
	var sum datasetSummaryJSON
	for i, l := range lines {
		var dl struct {
			errorLine
			Summary *datasetSummaryJSON `json:"summary"`
		}
		if err := json.Unmarshal([]byte(l), &dl); err != nil {
			t.Fatalf("bad dataset line %q: %v", l, err)
		}
		switch {
		case i == len(lines)-1 && dl.Summary != nil:
			sum = *dl.Summary
		case dl.Error == nil || dl.Error.Code != codeRetryBudget:
			t.Fatalf("dataset line %s, want %s", l, codeRetryBudget)
		}
	}
	if sum.Entities != 0 || sum.Dropped != 3*n {
		t.Fatalf("summary %+v, want every row dropped", sum)
	}
	if shed() <= afterBatch {
		t.Fatal("dataset budget exhaustion not counted")
	}
	want := fmt.Sprintf("crshard_retry_budget_exhausted_total %d\n", shed())
	if m := getBody(t, curl+"/metrics"); !strings.Contains(m, want) {
		t.Fatalf("metrics missing %q:\n%s", want, m)
	}
}

// datasetOwnedBy returns the smallest entity count n, at least min, whose
// edithDatasetBody gives backend owner at least want entities, each with
// its ring preference list; it fails when none up to 200 does.
func datasetOwnedBy(t *testing.T, c *Coordinator, owner, want, min int, ok func(prefs [][]int) bool) (int, [][]int) {
	t.Helper()
	var prefs [][]int
	owned := 0
	for i := 0; i < 200; i++ {
		p := c.ring.Owners(fmt.Sprintf("Edith %d", i), len(c.backends))
		prefs = append(prefs, p)
		if p[0] == owner {
			owned++
		}
		if i+1 >= min && owned >= want && (ok == nil || ok(prefs)) {
			return i + 1, prefs
		}
	}
	t.Fatalf("no body up to 200 entities gives backend %d %d entities", owner, want)
	return 0, nil
}

// TestShardDatasetFailoverAlongRing: a dying backend's entities move one
// by one, each to its own next owner on the ring, not wholesale to the
// next backend index; every key still appears once, byte-identical to a
// single crserve, and each moved entity counts as one retry.
func TestShardDatasetFailoverAlongRing(t *testing.T) {
	sibs := []*recordingBackend{newRecordingBackend(t), newRecordingBackend(t)}
	c, curl := newShard(t, []string{dyingBackend(t), sibs[0].url, sibs[1].url}, nil)
	// Some entity of the dying backend 0 must prefer backend 2 next, or the
	// test could not tell the ring from index order.
	n, prefs := datasetOwnedBy(t, c, 0, 1, 12, func(prefs [][]int) bool {
		for _, p := range prefs {
			if p[0] == 0 && p[1] == 2 {
				return true
			}
		}
		return false
	})
	body := edithDatasetBody(t, n)
	resp, lines := postNDJSON(t, curl+"/v1/resolve/dataset", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator status %d", resp.StatusCode)
	}
	requireDatasetMatchesSingle(t, n, lines, body)

	landed := make(map[string][]int) // entity name → backends that got its rows
	for s, rb := range sibs {
		for _, req := range rb.requests() {
			for name, rows := range req {
				if rows != 3 {
					t.Fatalf("backend %d got %d rows of %s, want all 3", s+1, rows, name)
				}
				landed[name] = append(landed[name], s+1)
			}
		}
	}
	moved := 0
	for i, p := range prefs {
		name := fmt.Sprintf("Edith %d", i)
		want := p[0]
		if want == 0 {
			want = p[1]
			moved++
		}
		if got := landed[name]; len(got) != 1 || got[0] != want {
			t.Fatalf("%s (ring preference %v) landed on backends %v, want [%d]", name, p, got, want)
		}
	}
	if got := c.backends[1].retries.Load() + c.backends[2].retries.Load(); got != int64(moved) {
		t.Fatalf("siblings counted %d retries for %d moved entities", got, moved)
	}
}

// cuttingBackend is a real crserve that answers a dataset request with
// only its first k result lines and then cuts the connection; it reports
// the ids of the lines it let through.
func cuttingBackend(t *testing.T, k int) (string, func() []string) {
	t.Helper()
	s := server.New(server.Config{})
	t.Cleanup(s.Close)
	h := s.Handler()
	var mu sync.Mutex
	var answered []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		lines := bytes.SplitAfter(rec.Body.Bytes(), []byte("\n"))
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Content-Length", "1048576")
		w.WriteHeader(http.StatusOK)
		for _, l := range lines[:k] {
			var dl dsLine
			if err := json.Unmarshal(l, &dl); err != nil || dl.Summary != nil {
				t.Errorf("line %q is not a result line", l)
			}
			mu.Lock()
			answered = append(answered, dl.ID)
			mu.Unlock()
			w.Write(l)
		}
	}))
	t.Cleanup(ts.Close)
	return ts.URL, func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), answered...)
	}
}

// TestShardDatasetCutStreamResendsUnanswered: when a backend's stream dies
// after k result lines, the sibling is sent only the rows of the entities
// still unanswered — the relayed ones are neither recomputed nor
// duplicated.
func TestShardDatasetCutStreamResendsUnanswered(t *testing.T) {
	const k = 2
	cut, answered := cuttingBackend(t, k)
	sib := newRecordingBackend(t)
	c, curl := newShard(t, []string{cut, sib.url}, nil)
	n, prefs := datasetOwnedBy(t, c, 0, k+2, 8, nil)
	body := edithDatasetBody(t, n)
	resp, lines := postNDJSON(t, curl+"/v1/resolve/dataset", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator status %d", resp.StatusCode)
	}
	requireDatasetMatchesSingle(t, n, lines, body)

	relayed := answered()
	if len(relayed) != k {
		t.Fatalf("cutting backend let %d lines through, want %d", len(relayed), k)
	}
	done := make(map[string]bool)
	for _, id := range relayed {
		done[id] = true
	}
	var want []string
	for i, p := range prefs {
		name := fmt.Sprintf("Edith %d", i)
		if p[0] == 0 && !done[name] {
			want = append(want, name)
		}
	}
	var resent []string
	for _, req := range sib.requests() {
		for name, rows := range req {
			if prefs[nameIndex(t, name)][0] == 0 {
				if rows != 3 {
					t.Fatalf("sibling got %d rows of %s, want all 3", rows, name)
				}
				resent = append(resent, name)
			}
		}
	}
	sort.Strings(want)
	sort.Strings(resent)
	if strings.Join(resent, "|") != strings.Join(want, "|") {
		t.Fatalf("sibling was sent %v, want only the unanswered %v", resent, want)
	}
	if got := c.backends[1].retries.Load(); got != int64(len(want)) {
		t.Fatalf("sibling counted %d retries for %d moved entities", got, len(want))
	}
}

func nameIndex(t *testing.T, name string) int {
	t.Helper()
	var i int
	if _, err := fmt.Sscanf(name, "Edith %d", &i); err != nil {
		t.Fatalf("entity name %q: %v", name, err)
	}
	return i
}

// slowBackend is a real crserve that waits d before answering each POST.
func slowBackend(t *testing.T, d time.Duration) string {
	t.Helper()
	s := server.New(server.Config{})
	t.Cleanup(s.Close)
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			time.Sleep(d)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestShardStreamBudgetSparesSlowSibling: the retry budget bounds the
// pauses between waves, not the hops. With a 50ms budget, one dying
// backend and a sibling that takes 300ms to answer, the rerouted hops
// still get the full per-hop Timeout: every entity of both streams
// resolves like on a single crserve, and nothing is shed.
func TestShardStreamBudgetSparesSlowSibling(t *testing.T) {
	c, curl := newShard(t, []string{dyingBackend(t), slowBackend(t, 300*time.Millisecond)}, func(cfg *Config) {
		cfg.RetryBase = 5 * time.Millisecond
		cfg.RetryBudget = 50 * time.Millisecond
	})
	// Both streams must have entities on the dying backend 0.
	n := 4
	owned := func(format string) bool {
		for i := 0; i < n; i++ {
			if c.ring.Owners(fmt.Sprintf(format, i), 2)[0] == 0 {
				return true
			}
		}
		return false
	}
	for ; !owned("e%d") || !owned("Edith %d"); n++ {
		if n > 200 {
			t.Fatal("no body up to 200 entities routes to backend 0")
		}
	}

	// The dataset goes first: its results would answer the batch's
	// entities from the slow backend's cache, which the batch parity check
	// ignores and the dataset one does not.
	body := edithDatasetBody(t, n)
	resp, lines := postNDJSON(t, curl+"/v1/resolve/dataset", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dataset status %d", resp.StatusCode)
	}
	requireDatasetMatchesSingle(t, n, lines, body)

	c.backends[0].up.Store(true)
	body = edithBatchBody(t, n)
	resp, lines = postNDJSON(t, curl+"/v1/resolve/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	_, single := postNDJSON(t, newBackendURL(t)+"/v1/resolve/batch", body)
	requireSameResults(t, n, collectBatch(t, lines), collectBatch(t, single))

	if shed := c.met.retryBudgetExhausted.Load(); shed != 0 {
		t.Fatalf("%d waves shed with retry_budget_exhausted", shed)
	}
	if c.backends[0].up.Load() || !c.backends[1].up.Load() {
		t.Fatal("want the dying backend down and the slow one up")
	}
}

// interleavedDatasetBody is edithDatasetBody with its rows dealt round
// robin over the entities, so no entity's rows are adjacent.
func interleavedDatasetBody(t *testing.T, n int) []byte {
	t.Helper()
	lines := bytes.SplitAfter(edithDatasetBody(t, n), []byte("\n"))
	out := append([]byte(nil), lines[0]...)
	for r := 0; r < 3; r++ {
		for i := 0; i < n; i++ {
			out = append(out, lines[1+3*i+r]...)
		}
	}
	return out
}

// TestShardDatasetKeepsInputOrder: each backend gets its rows in the
// client's order. A backend windows its input by contiguity, so a fleet of
// one answers an unclustered "sorted" input exactly as a single crserve
// does, one result line per contiguous run.
func TestShardDatasetKeepsInputOrder(t *testing.T) {
	_, curl := newShard(t, []string{newBackendURL(t)}, nil)
	body := interleavedDatasetBody(t, 6)
	answer := func(url string) ([]string, datasetSummaryJSON) {
		resp, lines := postNDJSON(t, url+"/v1/resolve/dataset", body)
		if resp.StatusCode != http.StatusOK || len(lines) == 0 {
			t.Fatalf("%s: status %d, %d lines", url, resp.StatusCode, len(lines))
		}
		var last struct {
			Summary *datasetSummaryJSON `json:"summary"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Summary == nil {
			t.Fatalf("%s: last line %q is not a summary", url, lines[len(lines)-1])
		}
		last.Summary.WallUs, last.Summary.RowsPerSec = 0, 0
		results := lines[:len(lines)-1]
		sort.Strings(results)
		return results, *last.Summary
	}
	sharded, shSum := answer(curl)
	single, siSum := answer(newBackendURL(t))
	if siSum.Entities != 3*6 {
		t.Fatalf("single crserve answered %d runs of an input with 18 one-row runs", siSum.Entities)
	}
	if shSum != siSum {
		t.Fatalf("summaries differ:\n sharded %+v\n single  %+v", shSum, siSum)
	}
	if strings.Join(sharded, "\n") != strings.Join(single, "\n") {
		t.Fatalf("result lines differ:\n sharded %s\n single  %s", strings.Join(sharded, "\n"), strings.Join(single, "\n"))
	}
}

// TestShardDatasetPartialAnswerCounted: a backend that relays one result
// line of an unclustered entity and then cuts has answered that entity in
// part. The rest of its rows are reported in-band and counted as dropped,
// not resent (its first line already reached the client); every other
// entity resolves on the sibling, and the answered rows plus dropped
// reconcile with the input rows.
func TestShardDatasetPartialAnswerCounted(t *testing.T) {
	cut, answered := cuttingBackend(t, 1)
	sib := newRecordingBackend(t)
	c, curl := newShard(t, []string{cut, sib.url}, nil)
	// Two or more entities on the cutting backend keep its rows
	// interleaved, so each of its result lines answers one row.
	n, _ := datasetOwnedBy(t, c, 0, 2, 6, nil)
	resp, lines := postNDJSON(t, curl+"/v1/resolve/dataset", interleavedDatasetBody(t, n))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator status %d", resp.StatusCode)
	}
	rows := make(map[string]int)
	var errs []string
	var sum *datasetSummaryJSON
	for _, l := range lines {
		var dl struct {
			ID      string              `json:"id"`
			Rows    int                 `json:"rows"`
			Error   *errorJSON          `json:"error"`
			Summary *datasetSummaryJSON `json:"summary"`
		}
		if err := json.Unmarshal([]byte(l), &dl); err != nil {
			t.Fatalf("bad line %q: %v", l, err)
		}
		switch {
		case dl.Summary != nil:
			sum = dl.Summary
		case dl.ID == "" && dl.Error != nil:
			errs = append(errs, dl.Error.Code+": "+dl.Error.Message)
		default:
			rows[dl.ID] += dl.Rows
		}
	}
	relayed := answered()
	if len(relayed) != 1 {
		t.Fatalf("cutting backend let %d lines through, want 1", len(relayed))
	}
	partial := relayed[0]
	total := 0
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("Edith %d", i)
		want := 3
		if name == partial {
			want = 1
		}
		if rows[name] != want {
			t.Fatalf("%s: %d rows answered, want %d (lines %v)", name, rows[name], want, lines)
		}
		total += rows[name]
	}
	if sum == nil || sum.Rows != int64(3*n) || sum.Dropped != 2 || int64(total)+sum.Dropped != sum.Rows {
		t.Fatalf("summary %+v does not reconcile %d answered rows with %d input rows", sum, total, 3*n)
	}
	if len(errs) != 1 || !strings.Contains(errs[0], "1 entities (2 rows) unresolved") {
		t.Fatalf("in-band errors %q, want one for the partial entity's 2 rows", errs)
	}
	for _, req := range sib.requests() {
		if req[partial] != 0 {
			t.Fatalf("partially answered %s was resent: %v", partial, req)
		}
	}
}

package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"conflictres/internal/fault"
	"conflictres/internal/server"
)

// liveBackend is a real in-process crserve whose listener the test can kill
// mid-fleet (newBackendURL keeps the server handle private).
type liveBackend struct {
	url string
	ts  *httptest.Server
}

func newLiveBackend(t testing.TB) *liveBackend {
	t.Helper()
	s := server.New(server.Config{})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &liveBackend{url: ts.URL, ts: ts}
}

func liveRow(name string, kids int) []any {
	return []any{name, "working", "nurse", kids, "NY", "212", "10036", "Manhattan"}
}

// entityGetRaw fetches an entity through the coordinator keeping the raw
// bytes and headers, for byte-identity and replica-lag assertions.
func entityGetRaw(t testing.TB, baseURL, key string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/entity/" + key)
	if err != nil {
		t.Fatalf("entity get %s: %v", key, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("entity get %s: read: %v", key, err)
	}
	return resp, data
}

func entityDelete(t testing.TB, baseURL, key string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, baseURL+"/v1/entity/"+key, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("entity delete %s: %v", key, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

func waitCond(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEntityReplicationFailoverByteIdentical kills a key's owner after
// replication has flushed: the next read fails over to the warm replica and
// must answer byte-identical to the owner's last answer — the replica
// replayed the same delta log, so there is nothing to be stale about (no
// replica_lag header either).
func TestEntityReplicationFailoverByteIdentical(t *testing.T) {
	b0, b1 := newLiveBackend(t), newLiveBackend(t)
	backends := []*liveBackend{b0, b1}
	c, base := newShard(t, []string{b0.url, b1.url}, func(cfg *Config) {
		cfg.RetryBase = time.Millisecond
		cfg.RetryCap = 5 * time.Millisecond
	})

	const key = "edith-repl"
	for i := 0; i < 3; i++ {
		st, status := entityUpsert(t, base, key, []any{liveRow("Edith Repl", i)})
		if status != http.StatusOK {
			t.Fatalf("upsert %d: status %d, state %v", i, status, st)
		}
	}
	waitCond(t, "replication flush", func() bool {
		return c.met.replicaForwards.Load() == 3 && c.repl.pending() == 0
	})

	resp, before := entityGetRaw(t, base, key)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-kill get: status %d: %s", resp.StatusCode, before)
	}
	if h := resp.Header.Get("X-Crshard-Replica-Lag"); h != "" {
		t.Fatalf("flushed entity served with replica lag %q", h)
	}

	// Kill the owner's listener outright: the coordinator still believes it
	// is up, so the failover rides the transport-error path (mark-down,
	// backoff, next preference), not a routing shortcut.
	owner := c.ring.Owners(key, 1)[0]
	backends[owner].ts.Close()

	resp, after := entityGetRaw(t, base, key)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover get: status %d: %s", resp.StatusCode, after)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("replica state diverged from owner:\nowner   %s\nreplica %s", before, after)
	}
	if h := resp.Header.Get("X-Crshard-Replica-Lag"); h != "" {
		t.Fatalf("current replica served with replica lag %q", h)
	}
	if c.met.replicaFailoverGet.Load() == 0 {
		t.Fatal("failover read not counted in crshard_replica_failover_total{op=\"get\"}")
	}
	// Writes keep flowing on the replica, extending the same entity rather
	// than starting a fresh one.
	st, status := entityUpsert(t, base, key, []any{liveRow("Edith Repl", 7)})
	if status != http.StatusOK || st["created"] == true || st["rows"] != float64(4) {
		t.Fatalf("post-failover upsert: status %d, state %v", status, st)
	}
	if c.met.replicaFailoverUpsert.Load() == 0 {
		t.Fatal("failover write not counted in crshard_replica_failover_total{op=\"upsert\"}")
	}
}

// TestEntityReplicaLagSurfaced starves the replica of one forward and then
// fails over to it: the response must carry the gap explicitly — a
// replica_lag field in the body and the X-Crshard-Replica-Lag header —
// instead of passing one-row state off as current.
func TestEntityReplicaLagSurfaced(t *testing.T) {
	urls := []string{newBackendURL(t), newBackendURL(t)}
	c, base := newShard(t, urls, func(cfg *Config) {
		cfg.RetryBase = time.Millisecond
		cfg.RetryCap = 5 * time.Millisecond
		cfg.RetryBudget = 250 * time.Millisecond
	})

	const key = "edith-lag"
	if _, status := entityUpsert(t, base, key, []any{liveRow("Edith Lag", 0)}); status != http.StatusOK {
		t.Fatalf("upsert 0: status %d", status)
	}
	waitCond(t, "first forward", func() bool { return c.met.replicaForwards.Load() == 1 })

	// Down the replica: the second delta acks on the owner but its forward
	// is dropped after exhausting the budget, so the replica stays one
	// delta behind.
	owners := c.ring.Owners(key, 2)
	ownerIdx, replicaIdx := owners[0], owners[1]
	c.backends[replicaIdx].up.Store(false)
	if _, status := entityUpsert(t, base, key, []any{liveRow("Edith Lag", 1)}); status != http.StatusOK {
		t.Fatalf("upsert 1: status %d", status)
	}
	waitCond(t, "dropped forward", func() bool { return c.met.replicaForwardFailures.Load() == 1 })

	c.backends[replicaIdx].up.Store(true)
	c.backends[ownerIdx].up.Store(false)
	resp, body := entityGetRaw(t, base, key)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lagging replica get: status %d: %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-Crshard-Replica-Lag"); h != "1" {
		t.Fatalf("X-Crshard-Replica-Lag = %q, want \"1\"", h)
	}
	var st map[string]any
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("bad lagging body %s: %v", body, err)
	}
	if st["replica_lag"] != float64(1) {
		t.Fatalf("replica_lag = %v, want 1: %s", st["replica_lag"], body)
	}
	if st["rows"] != float64(1) {
		t.Fatalf("lagging replica rows = %v, want the 1 forwarded row: %s", st["rows"], body)
	}
}

// TestEntityDeleteInvalidatesReplica is the resurrection regression: DELETE
// must invalidate the sibling replica through the same ordered queue as the
// upserts, or the next owner death would bring the deleted entity back from
// the warm copy.
func TestEntityDeleteInvalidatesReplica(t *testing.T) {
	urls := []string{newBackendURL(t), newBackendURL(t)}
	c, base := newShard(t, urls, func(cfg *Config) {
		cfg.RetryBase = time.Millisecond
		cfg.RetryCap = 5 * time.Millisecond
	})

	const key = "edith-del"
	if _, status := entityUpsert(t, base, key, []any{liveRow("Edith Del", 0)}); status != http.StatusOK {
		t.Fatalf("upsert: status %d", status)
	}
	waitCond(t, "upsert forward", func() bool { return c.met.replicaForwards.Load() == 1 })

	if status := entityDelete(t, base, key); status != http.StatusOK {
		t.Fatalf("delete: status %d", status)
	}
	waitCond(t, "delete forward", func() bool { return c.met.replicaForwards.Load() == 2 })

	c.backends[c.ring.Owners(key, 1)[0]].up.Store(false)
	resp, body := entityGetRaw(t, base, key)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted entity resurrected on the replica: status %d: %s", resp.StatusCode, body)
	}
}

// TestEntityRetriedUpsertBusyResent pins the coordinator's answer to a
// retried upsert that finds the entity busy: the first POST dies on the
// wire, the retry lands on the sibling and gets 409 entity_busy (the entity
// is still held, e.g. by a replica forward), and the coordinator backs off
// and resends to that same backend instead of relaying the 409.
func TestEntityRetriedUpsertBusyResent(t *testing.T) {
	var mu sync.Mutex
	var served []string // backend name per POST: drop, busy, then ok
	stub := func(name string) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet {
				w.Write([]byte(`{"status":"ok"}`))
				return
			}
			io.Copy(io.Discard, r.Body)
			mu.Lock()
			n := len(served)
			served = append(served, name)
			mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			switch n {
			case 0:
				if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
					conn.Close()
				}
			case 1:
				w.WriteHeader(http.StatusConflict)
				w.Write([]byte(`{"error":{"code":"entity_busy","message":"entity is busy"}}`))
			default:
				w.Write([]byte(`{"valid":true,"rows":1}`))
			}
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	_, base := newShard(t, []string{stub("b0"), stub("b1")}, func(cfg *Config) {
		cfg.RetryBase = time.Millisecond
		cfg.RetryCap = 5 * time.Millisecond
		cfg.RetryBudget = 5 * time.Second
	})

	st, status := entityUpsert(t, base, "busy-entity", []any{liveRow("Edith Busy", 1)})
	if status != http.StatusOK {
		t.Fatalf("upsert answered %d %v, want 200 after resending the busy retry", status, st)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(served) < 3 || served[0] == served[1] || served[1] != served[2] {
		t.Fatalf("POSTs went to %v: the retry must fail over, the busy resend must stay on the backend that answered", served)
	}
}

// TestEntityBusyDuringForwardResent: a first-attempt upsert answered 409
// entity_busy is the client's own race and is relayed — unless a replica
// forward for the key is in flight, which may be what holds the entity; then
// the coordinator backs off and resends.
func TestEntityBusyDuringForwardResent(t *testing.T) {
	var mu sync.Mutex
	posts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		io.Copy(io.Discard, r.Body)
		mu.Lock()
		posts++
		busy := posts <= 2 // each upsert's first POST finds the entity busy
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if busy {
			w.WriteHeader(http.StatusConflict)
			w.Write([]byte(`{"error":{"code":"entity_busy","message":"entity is busy"}}`))
			return
		}
		w.Write([]byte(`{"valid":true,"rows":1}`))
	}))
	t.Cleanup(ts.Close)
	c, base := newShard(t, []string{ts.URL}, func(cfg *Config) {
		cfg.RetryBase = time.Millisecond
		cfg.RetryCap = 5 * time.Millisecond
	})
	const key = "forwarded-entity"

	if _, status := entityUpsert(t, base, key, []any{liveRow("Edith Busy", 1)}); status != http.StatusConflict {
		t.Fatalf("busy with no forward in flight answered %d, want the 409 relayed", status)
	}
	c.repl.mu.Lock()
	c.repl.state(key).draining = true
	c.repl.mu.Unlock()
	if st, status := entityUpsert(t, base, key, []any{liveRow("Edith Busy", 2)}); status != http.StatusOK {
		t.Fatalf("busy during a forward answered %d %v, want 200 after a resend", status, st)
	}
	mu.Lock()
	defer mu.Unlock()
	if posts != 3 {
		t.Fatalf("backend saw %d POSTs, want 3 (busy relayed; busy, resend)", posts)
	}
}

// TestEntityChaosAtLeastOnce streams deltas through a coordinator whose
// backend transport fails deterministically at random (internal/fault): no
// acknowledged row may be lost silently. After the storm settles, the
// served state plus its explicit replica_lag must cover every acknowledged
// delta — staleness is allowed only when declared. Runs under -race: client
// retries, health probes and replication drains all hammer the tracker.
func TestEntityChaosAtLeastOnce(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 42, TransportErrorRate: 0.25, TruncateRate: 0.1})
	urls := []string{newBackendURL(t), newBackendURL(t)}
	c, base := newShard(t, urls, func(cfg *Config) {
		cfg.HealthInterval = 25 * time.Millisecond // probes revive storm-downed backends
		cfg.RetryBase = time.Millisecond
		cfg.RetryCap = 10 * time.Millisecond
		cfg.RetryBudget = 5 * time.Second
		cfg.Client = &http.Client{Transport: inj.RoundTripper(http.DefaultTransport)}
	})

	const key, total = "edith-chaos", 25
	acked := 0
	for i := 0; i < total; i++ {
		st, status := entityUpsert(t, base, key, []any{liveRow("Edith Chaos", i)})
		switch {
		case status == http.StatusOK:
			acked++
		case status >= http.StatusInternalServerError:
			// Shed (no_backend, retry budget): give the health loop a beat
			// to revive whatever the storm knocked over.
			time.Sleep(20 * time.Millisecond)
		default:
			t.Fatalf("upsert %d: unexpected status %d, state %v", i, status, st)
		}
	}
	if acked == 0 {
		t.Fatal("chaos transport acknowledged nothing")
	}
	if n := inj.CountersSnapshot().TransportErrors; n == 0 {
		t.Fatal("injector delivered no transport faults")
	}
	// Every acknowledged delta's forward reaches a terminal outcome
	// (replicated or dropped-with-visible-lag) — wait for the queue to dry
	// so the serving backend's bookkeeping is stable.
	waitCond(t, "replication settle", func() bool {
		return c.met.replicaForwards.Load()+c.met.replicaForwardFailures.Load() >= int64(acked) &&
			c.repl.pending() == 0
	})

	deadline := time.Now().Add(15 * time.Second)
	for {
		for _, b := range c.backends {
			b.up.Store(true)
		}
		resp, body := entityGetRaw(t, base, key)
		if resp.StatusCode == http.StatusOK {
			var st map[string]any
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatalf("bad final state %s: %v", body, err)
			}
			rows, _ := st["rows"].(float64)
			lag, _ := st["replica_lag"].(float64)
			// The core chaos invariant: acknowledged deltas are either in
			// the served state or declared missing. rows can exceed acked
			// (at-least-once replay after a lost acknowledgment), never
			// silently undershoot.
			if int(rows)+int(lag) < acked {
				t.Fatalf("acknowledged rows lost silently: rows=%v lag=%v acked=%d", rows, lag, acked)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("final read never succeeded: status %d: %s", resp.StatusCode, body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The unified-retry metric families render (values are storm-dependent).
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		"crshard_retry_budget_exhausted_total",
		"crshard_replica_forwards_total",
		"crshard_replica_forward_failures_total",
		fmt.Sprintf("crshard_replica_failover_total{op=%q}", "upsert"),
		"crshard_replica_pending 0",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, rec.Body.String())
		}
	}
}

// cutForward is a transport that cuts the answer of the first POST to host
// — the key's replica forward — once the backend has started applying it:
// the coordinator sees a transport error while the replica still holds the
// entity.
type cutForward struct {
	mu      sync.Mutex
	host    string
	cut     bool
	holding chan struct{} // closed by the backend once it holds the entity
}

func (t *cutForward) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	cut := !t.cut && req.Method == http.MethodPost && req.URL.Host == t.host
	t.cut = t.cut || cut
	t.mu.Unlock()
	if !cut {
		return http.DefaultTransport.RoundTrip(req)
	}
	go func() {
		resp, err := http.DefaultTransport.RoundTrip(req.Clone(context.WithoutCancel(req.Context())))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-t.holding
	return nil, errors.New("forward answer cut")
}

// TestEntityBusyAfterCutForwardResent: a replica forward whose answer was
// cut may still hold the entity on the replica after the drain gave the
// forward up. A first-attempt upsert that finds the entity busy there is
// resent, not relayed as the client's own race, until the replica is seen
// free.
func TestEntityBusyAfterCutForwardResent(t *testing.T) {
	const key = "cut-forward"
	tr := &cutForward{holding: make(chan struct{})}
	release := make(chan struct{})
	var mu sync.Mutex
	held, forwarded := false, false
	replicaPosts := 0
	stub := func() string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet {
				w.Write([]byte(`{"status":"ok"}`))
				return
			}
			io.Copy(io.Discard, r.Body)
			tr.mu.Lock()
			onReplica := r.Host == tr.host
			tr.mu.Unlock()
			mu.Lock()
			hold := onReplica && !forwarded // the replica's first POST is the forward
			busy := onReplica && held
			if onReplica {
				replicaPosts++
			}
			if hold {
				forwarded, held = true, true
			}
			mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			switch {
			case hold:
				close(tr.holding)
				<-release
				mu.Lock()
				held = false
				mu.Unlock()
			case busy:
				w.WriteHeader(http.StatusConflict)
				w.Write([]byte(`{"error":{"code":"entity_busy","message":"entity is busy"}}`))
				return
			}
			w.Write([]byte(`{"valid":true,"rows":1}`))
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	urls := []string{stub(), stub()}
	c, base := newShard(t, urls, func(cfg *Config) {
		cfg.RetryBase = time.Millisecond
		cfg.RetryCap = 5 * time.Millisecond
		cfg.RetryBudget = 5 * time.Second
		cfg.Client = &http.Client{Transport: tr}
	})
	var releaseOnce sync.Once
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })
	primary := c.ring.Owners(key, 1)[0]
	replica := 1 - primary
	tr.mu.Lock()
	tr.host = strings.TrimPrefix(urls[replica], "http://")
	tr.mu.Unlock()

	if st, status := entityUpsert(t, base, key, []any{liveRow("Edith Cut", 1)}); status != http.StatusOK {
		t.Fatalf("first upsert answered %d %v", status, st)
	}
	waitCond(t, "cut forward given up", func() bool {
		c.repl.mu.Lock()
		defer c.repl.mu.Unlock()
		st, ok := c.repl.m[key]
		return c.met.replicaForwardFailures.Load() == 1 && !(ok && st.draining)
	})
	// The primary goes down, so the next upsert's first attempt lands on
	// the replica, which is still applying the cut forward.
	c.backends[primary].up.Store(false)
	c.backends[replica].up.Store(true)
	go func() {
		time.Sleep(50 * time.Millisecond)
		releaseOnce.Do(func() { close(release) })
	}()
	if st, status := entityUpsert(t, base, key, []any{liveRow("Edith Cut", 2)}); status != http.StatusOK {
		t.Fatalf("upsert behind a cut forward answered %d %v, want 200 after a resend", status, st)
	}
	mu.Lock()
	defer mu.Unlock()
	if replicaPosts < 3 {
		t.Fatalf("replica saw %d POSTs, want the forward, a busy answer and the resend", replicaPosts)
	}
}

// TestReplTrackerMayHold: a forward counts against a client attempt's busy
// answer if it overlapped the attempt, even when it is over by the time the
// answer is judged, and a forward whose answer was lost counts until the
// replica answers free.
func TestReplTrackerMayHold(t *testing.T) {
	tr := newReplTracker()
	const key = "k"
	tr.onAck(key, 0, replJob{servedIdx: 0})
	before := tr.forwardGen(key)
	if _, ok := tr.pop(key); !ok {
		t.Fatal("no forward queued")
	}
	tr.onForwarded(key, 0)
	if _, ok := tr.pop(key); ok {
		t.Fatal("a second forward queued")
	}
	if !tr.mayHold(key, 1, before) {
		t.Fatal("a forward that started and finished during the attempt does not count")
	}
	if tr.mayHold(key, 1, tr.forwardGen(key)) {
		t.Fatal("an answered forward still counts for an attempt after it")
	}

	// In a fleet of three, a forward sent to backend 1 loses its answer.
	tr.onAck(key, 0, replJob{servedIdx: 0})
	tr.pop(key)
	tr.onForwarded(key, 1<<1)
	tr.pop(key)
	after := tr.forwardGen(key)
	if !tr.mayHold(key, 1, after) || tr.mayHold(key, 0, after) || tr.mayHold(key, 2, after) {
		t.Fatal("a cut forward must count on the backend it was sent to only")
	}
	tr.settle(key, 1)
	if tr.mayHold(key, 1, after) {
		t.Fatal("a replica that answered free still counts as held")
	}
}

// TestReplTrackerDropsSettledEntry: a key whose forward lost its answer
// stays tracked through a delete until the replica it was sent to answers
// free, and is dropped then, so cut forwards do not leak entries.
func TestReplTrackerDropsSettledEntry(t *testing.T) {
	tr := newReplTracker()
	const key = "k"
	tracked := func() bool {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		_, ok := tr.m[key]
		return ok
	}
	tr.onAck(key, 0, replJob{servedIdx: 0})
	tr.pop(key)
	tr.onForwarded(key, 1<<1) // the upsert's forward to backend 1 is cut
	tr.pop(key)

	// The client deletes through backend 0; the invalidation forward to
	// backend 1 is cut too.
	tr.onDelete(key, replJob{method: http.MethodDelete, servedIdx: 0})
	tr.pop(key)
	tr.onForwarded(key, 1<<1)
	if _, ok := tr.pop(key); ok || !tracked() {
		t.Fatal("an entry with an unsettled replica was dropped")
	}
	tr.settle(key, 2) // a backend no forward reached settles nothing
	if !tracked() {
		t.Fatal("an answer from a backend no forward reached dropped the entry")
	}
	tr.settle(key, 1)
	if tracked() {
		t.Fatal("the entry outlived its replica's settling answer")
	}
}

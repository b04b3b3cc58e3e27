package shard

import (
	"context"
	"fmt"
	"net/http"
	"sync"
)

// Live-entity replication. The coordinator is the fleet's only writer for a
// key (ring placement gives every coordinator the same owner), so it can
// also be the key's replication pump: each acknowledged upsert is forwarded
// asynchronously — as a plain log-replay POST of the same body — to the
// ring's next live owner, keeping a warm replica whose registry state is
// reproducible from the identical delta sequence. On owner death, reads and
// writes fail over along the preference list and land on that replica.
//
// The tracker also carries the bookkeeping that makes staleness explicit:
// per key it counts deltas acknowledged to clients (acked) and deltas known
// to have been applied per backend (have). A backend serving the key with
// have < acked is behind, and the gap is surfaced to clients as
// replica_lag instead of silently serving stale state.

// replJob is one pending replication forward for a key, in FIFO order.
type replJob struct {
	method string // POST (upsert replay) or DELETE (replica invalidation)
	path   string
	body   []byte // nil for DELETE
	// servedIdx is the backend that already holds this delta (it answered
	// the client); the forward targets a different backend.
	servedIdx int
}

// replState is one key's replication bookkeeping, guarded by replTracker.mu
// (the queue is tiny and operations are O(1); a per-key mutex would buy
// nothing but lock-ordering rules).
type replState struct {
	acked    int64         // deltas acknowledged to clients
	have     map[int]int64 // backend index -> deltas applied there
	queue    []replJob
	draining bool // a drain goroutine owns the queue head
	// gen counts forwards started and finished, so a client attempt can
	// tell whether one overlapped it even if it is over by the time the
	// answer is judged.
	gen uint64
	// unsettled marks, by backend index, replicas a forward may still be
	// applying on: its answer was lost, so only a later answer from that
	// backend that is not entity_busy shows the forward finished.
	unsettled uint64
}

// replTracker maps entity keys to their replication state.
type replTracker struct {
	mu sync.Mutex
	m  map[string]*replState
}

func newReplTracker() *replTracker {
	return &replTracker{m: make(map[string]*replState)}
}

// state returns the key's entry, creating it if needed. Callers hold t.mu.
func (t *replTracker) state(key string) *replState {
	st, ok := t.m[key]
	if !ok {
		st = &replState{have: make(map[int]int64)}
		t.m[key] = st
	}
	return st
}

// onAck records a delta acknowledged to the client by backend idx and
// enqueues its replication job. It reports whether the caller should start
// a drain goroutine (exactly one drains a key at a time, preserving the
// delta order the replica replays).
func (t *replTracker) onAck(key string, idx int, job replJob) (startDrain bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state(key)
	st.acked++
	st.have[idx]++
	st.queue = append(st.queue, job)
	if st.draining {
		return false
	}
	st.draining = true
	return true
}

// onDelete records a client-visible delete acknowledged by backend idx and
// enqueues the replica invalidation. The counters reset: the next upsert
// under the key is a fresh entity.
func (t *replTracker) onDelete(key string, job replJob) (startDrain bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.state(key)
	st.acked = 0
	st.have = make(map[int]int64)
	st.queue = append(st.queue, job)
	if st.draining {
		return false
	}
	st.draining = true
	return true
}

// pop hands the drain goroutine the key's next job, or clears the draining
// flag and reports done. An empty, fully replicated entry is dropped so the
// map does not grow with dead keys.
func (t *replTracker) pop(key string) (replJob, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.m[key]
	if !ok || len(st.queue) == 0 {
		if ok {
			st.draining = false
			if st.acked == 0 && st.unsettled == 0 {
				delete(t.m, key)
			}
		}
		return replJob{}, false
	}
	job := st.queue[0]
	st.queue = st.queue[1:]
	st.gen++
	return job, true
}

// onForwarded ends a forward popped for key. lost marks, by index, the
// backends it was sent to without an answer coming back: each may still be
// applying the delta.
func (t *replTracker) onForwarded(key string, lost uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st, ok := t.m[key]; ok {
		st.gen++
		st.unsettled |= lost
	}
}

// settle records an answer from backend idx for key that was not
// entity_busy: no earlier forward is still holding the entity there. An
// idle entry with nothing acknowledged and nothing unsettled is dropped,
// as pop drops it.
func (t *replTracker) settle(key string, idx int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st, ok := t.m[key]; ok {
		st.unsettled &^= 1 << uint(idx)
		if !st.draining && st.acked == 0 && st.unsettled == 0 {
			delete(t.m, key)
		}
	}
}

// onReplicated records a successful forward: backend idx now also holds the
// delta (no-op for deletes, whose counters were already reset).
func (t *replTracker) onReplicated(key string, idx int, method string) {
	if method != http.MethodPost {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if st, ok := t.m[key]; ok {
		st.have[idx]++
	}
}

// lag reports how many acknowledged deltas backend idx is missing for key.
// Zero means idx is current (or the key is untracked — a fresh coordinator
// cannot know better than the backend it asked).
func (t *replTracker) lag(key string, idx int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.m[key]
	if !ok {
		return 0
	}
	if d := st.acked - st.have[idx]; d > 0 {
		return d
	}
	return 0
}

// forwardGen returns key's forward generation, to pass to mayHold after
// an attempt.
func (t *replTracker) forwardGen(key string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st, ok := t.m[key]; ok {
		return st.gen
	}
	return 0
}

// mayHold reports whether a replica forward may have held key's entity on
// backend idx at some moment since forwardGen returned since: the drain
// is running, a forward started or finished since then, or a forward to
// idx lost its answer and idx has not answered free since.
func (t *replTracker) mayHold(key string, idx int, since uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.m[key]
	return ok && (st.draining || st.gen != since || st.unsettled&(1<<uint(idx)) != 0)
}

// pending reports queued-but-unsent replication jobs across all keys (the
// crshard_replica_pending gauge; tests poll it to flush replication).
func (t *replTracker) pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, st := range t.m {
		n += len(st.queue)
	}
	return n
}

// drainRepl forwards a key's queued deltas until the queue empties. One
// goroutine per key at a time (see onAck), so the replica receives deltas
// in acknowledgment order. Each forward retries under the unified policy
// within the retry budget; a forward that still fails is dropped — the
// replica's lag stays visible through the have/acked gap rather than the
// queue growing without bound behind a dead fleet.
func (c *Coordinator) drainRepl(key string) {
	for {
		select {
		case <-c.healthStop:
			// Coordinator shutting down: abandon the queue (lag persists).
			return
		default:
		}
		job, ok := c.repl.pop(key)
		if !ok {
			return
		}
		c.forwardReplJob(key, job)
	}
}

// forwardReplJob sends one replication job through send, never back to
// the backend that served it, under one retry budget from its start.
// Failure is terminal for the job, never for the drain.
func (c *Coordinator) forwardReplJob(key string, job replJob) {
	ctx, cancel := c.retryBudgetCtx(context.Background())
	defer cancel()
	var sent uint64
	rep, err := c.send(ctx, keyed{
		key: key, method: job.method, path: job.path, body: job.body,
		tried: 1 << uint(job.servedIdx),
		sent:  &sent,
		// A 5xx may be transient ErrBusy contention: resend to the same
		// backend.
		resend: func(rep reply, _ int) error {
			if rep.status >= 500 {
				return fmt.Errorf("replica %s answered %d", rep.b.url, rep.status)
			}
			return nil
		},
	})
	// 2xx applied the delta, and a DELETE answered 404 already has nothing
	// to invalidate. Any other 4xx (e.g. 409 racing a client write) is
	// final for this backend — the log replay cannot make progress by
	// retrying it.
	lost := sent
	if err == nil {
		lost &^= 1 << uint(rep.idx)
	}
	c.repl.onForwarded(key, lost)
	if err == nil && !isEntityBusy(rep.status, rep.data) {
		c.repl.settle(key, rep.idx)
	}
	if err == nil && (rep.status < 300 || (job.method == http.MethodDelete && rep.status == http.StatusNotFound)) {
		c.met.replicaForwards.Add(1)
		c.repl.onReplicated(key, rep.idx, job.method)
		return
	}
	c.met.replicaForwardFailures.Add(1)
}

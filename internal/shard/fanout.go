package shard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"sync"
	"time"

	"conflictres/internal/httpstream"
)

// batchJob is one entity line in flight through the fleet.
type batchJob struct {
	line  []byte // raw entity line (owned copy)
	index int    // zero-based index in the client's stream
	id    string // entity id (may be empty)
	key   string // routing key
	tried uint64 // bitmask of backend indices already attempted
}

// emitter serializes merged result lines onto the client response and
// accounts merge-path time. Batch merging re-encodes restamped structs via
// enc; dataset merging relays raw backend lines via out.
type emitter struct {
	mu      sync.Mutex
	out     io.Writer
	enc     *json.Encoder
	w       http.Flusher
	mergeNs func(int64)
}

func (e *emitter) emit(v any) {
	start := time.Now()
	e.mu.Lock()
	e.enc.Encode(v)
	if e.w != nil {
		e.w.Flush()
	}
	e.mu.Unlock()
	e.mergeNs(int64(time.Since(start)))
}

// handleBatch is POST /v1/resolve/batch on the coordinator: the same NDJSON
// contract as a single crserve, fanned out across the fleet. Entities are
// routed by id on the ring, grouped into per-backend sub-batches of
// ChunkEntities lines, and pipelined with at most Pipeline sub-batches in
// flight per backend (the reader blocks past that, so client back-pressure
// reaches the slowest backend). Results stream back in completion order
// restamped with the client's entity indices. A backend that dies
// mid-sub-batch is marked down and the sub-batch's unanswered entities are
// retried on the next owner along the ring.
func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	// Merged result lines are gated until the client's request stream is
	// fully received (HTTP/1.1 cannot full-duplex; see httpstream), then
	// stream as backends answer.
	gw := httpstream.NewGatedWriter(w)
	defer gw.Open() // cover reads that stop short of body EOF
	sc := bufio.NewScanner(gw.BodyEOF(r.Body))
	bufSize := 64 << 10
	if int(c.cfg.MaxBodyBytes) < bufSize {
		bufSize = int(c.cfg.MaxBodyBytes)
	}
	sc.Buffer(make([]byte, bufSize), int(c.cfg.MaxBodyBytes))

	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			c.writeError(w, http.StatusBadRequest, codeBadRequest, "bad header line: "+err.Error())
			return
		}
		c.writeError(w, http.StatusBadRequest, codeBadRequest, "empty batch: missing header line")
		return
	}
	headerLine := append([]byte(nil), sc.Bytes()...)
	var hdr batchHeader
	if err := json.Unmarshal(headerLine, &hdr); err != nil {
		c.writeError(w, http.StatusBadRequest, codeBadRequest, "bad header line: "+err.Error())
		return
	}
	if err := compileHeaderRules(&hdr.ruleSetJSON); err != nil {
		c.writeError(w, http.StatusBadRequest, codeBadRules, err.Error())
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	em := &emitter{enc: json.NewEncoder(gw), w: gw, mergeNs: func(ns int64) { c.met.batchMergeNs.Add(ns) }}

	// One pipelining semaphore per backend: a slot is held for the full
	// life of a sub-batch POST, so at most Pipeline requests are in flight
	// per backend and the reader stalls (back-pressuring the client)
	// rather than buffering unbounded work for a slow backend.
	sems := make([]chan struct{}, len(c.backends))
	for i := range sems {
		sems[i] = make(chan struct{}, c.cfg.Pipeline)
	}
	var wg sync.WaitGroup
	dispatch := func(bIdx int, jobs []batchJob) {
		sems[bIdx] <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.sendSubBatch(r.Context(), headerLine, bIdx, jobs, em, sems)
		}()
	}

	pending := make(map[int][]batchJob, len(c.backends))
	index := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		i := index
		index++
		var ek entityKey
		if err := json.Unmarshal(line, &ek); err != nil {
			em.emit(&resultLine{Index: &i, Error: &errorJSON{Code: codeBadRequest, Message: "bad entity line: " + err.Error()}})
			continue
		}
		key := ek.ID
		if key == "" {
			// Anonymous entities spread by stream position; they still get
			// stable retry siblings from the ring.
			key = fmt.Sprintf("#%d", i)
		}
		b, bIdx := c.route(key, 0)
		if b == nil {
			c.met.noBackend.Add(1)
			em.emit(&resultLine{ID: ek.ID, Index: &i, Error: &errorJSON{Code: codeNoBackend, Message: "no live backend for entity"}})
			continue
		}
		pending[bIdx] = append(pending[bIdx], batchJob{
			line: append([]byte(nil), line...), index: i, id: ek.ID, key: key,
		})
		if len(pending[bIdx]) >= c.cfg.ChunkEntities {
			dispatch(bIdx, pending[bIdx])
			pending[bIdx] = nil
		}
	}
	scanErr := sc.Err()
	for bIdx, jobs := range pending {
		if len(jobs) > 0 {
			dispatch(bIdx, jobs)
		}
	}
	wg.Wait()
	if scanErr != nil {
		i := index
		em.emit(&resultLine{Index: &i, Error: &errorJSON{Code: codeBadRequest, Message: "stream aborted: " + scanErr.Error()}})
	}
}

// sendSubBatch posts one sub-batch to backend bIdx and merges its streamed
// results. The caller has already reserved a pipeline slot on bIdx; the
// slot is released when the sub-batch settles on that backend (success,
// deterministic failure, or mark-down). Entities left unanswered by a
// transport failure are rerouted to their next untried live owner —
// recursively, so a chain of failures walks each entity's preference list
// until it lands or exhausts the fleet.
func (c *Coordinator) sendSubBatch(ctx context.Context, headerLine []byte, bIdx int, jobs []batchJob, em *emitter, sems []chan struct{}) {
	b := c.backends[bIdx]
	release := func() { <-sems[bIdx] }

	var body bytes.Buffer
	body.Grow(len(headerLine) + 1)
	body.Write(headerLine)
	body.WriteByte('\n')
	for _, j := range jobs {
		body.Write(j.line)
		body.WriteByte('\n')
	}

	b.requests.Add(1)
	reqCtx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, b.url+"/v1/resolve/batch", &body)
	if err != nil {
		release()
		em.emitJobErrors(jobs, codeBadRequest, err.Error())
		return
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		c.markDown(b)
		release()
		c.rerouteJobs(ctx, headerLine, bIdx, jobs, em, sems)
		return
	}
	defer resp.Body.Close()

	if resp.StatusCode != http.StatusOK {
		// A non-200 batch response is a header-level verdict (bad rules,
		// oversized line): deterministic, so retrying a sibling would just
		// repeat it. Relay the envelope per entity.
		var env struct {
			Error *errorJSON `json:"error"`
		}
		code, msg := codeBadRequest, fmt.Sprintf("backend answered %d", resp.StatusCode)
		if json.NewDecoder(resp.Body).Decode(&env) == nil && env.Error != nil {
			code, msg = env.Error.Code, env.Error.Message
		}
		release()
		em.emitJobErrors(jobs, code, msg)
		return
	}

	seen := make([]bool, len(jobs))
	rs := bufio.NewScanner(resp.Body)
	bufSize := 64 << 10
	rs.Buffer(make([]byte, bufSize), int(c.cfg.MaxBodyBytes))
	for rs.Scan() {
		line := rs.Bytes()
		if len(line) == 0 {
			continue
		}
		start := time.Now()
		var res resultLine
		if err := json.Unmarshal(line, &res); err != nil || res.Index == nil || *res.Index < 0 || *res.Index >= len(jobs) {
			// An unattributable line: nothing to restamp it onto. Skip it;
			// its entity will be rerouted as unanswered below if the stream
			// also failed, or error-reported on clean end.
			c.met.batchMergeNs.Add(int64(time.Since(start)))
			continue
		}
		j := jobs[*res.Index]
		seen[*res.Index] = true
		res.Index, res.ID = &j.index, j.id
		c.met.batchMergeNs.Add(int64(time.Since(start)))
		em.emit(&res)
	}
	release()

	var unanswered []batchJob
	for i, ok := range seen {
		if !ok {
			unanswered = append(unanswered, jobs[i])
		}
	}
	if len(unanswered) == 0 {
		return
	}
	if err := rs.Err(); err != nil {
		// The stream died under us: the backend (or the path to it) is
		// gone. Everything unanswered moves to the next owner.
		c.markDown(b)
		c.rerouteJobs(ctx, headerLine, bIdx, unanswered, em, sems)
		return
	}
	// Clean end of stream with missing results — a backend bug rather than
	// a transport failure; report rather than loop.
	em.emitJobErrors(unanswered, codeBackendDown, "backend closed the stream without answering")
}

// emitJobErrors answers a set of jobs with the same in-band error.
func (e *emitter) emitJobErrors(jobs []batchJob, code, msg string) {
	for _, j := range jobs {
		i := j.index
		e.emit(&resultLine{ID: j.id, Index: &i, Error: &errorJSON{Code: code, Message: msg}})
	}
}

// rerouteJobs re-dispatches failed jobs to each entity's next untried live
// owner, grouping per target so a retried sub-batch stays batched. Entities
// with no remaining owner answer no_backend in-band.
func (c *Coordinator) rerouteJobs(ctx context.Context, headerLine []byte, failedIdx int, jobs []batchJob, em *emitter, sems []chan struct{}) {
	regroup := make(map[int][]batchJob)
	for _, j := range jobs {
		j.tried |= 1 << uint(failedIdx)
		nb, nIdx := c.route(j.key, j.tried)
		if nb == nil {
			c.met.noBackend.Add(1)
			i := j.index
			em.emit(&resultLine{ID: j.id, Index: &i, Error: &errorJSON{Code: codeNoBackend, Message: "no live backend for entity after retries"}})
			continue
		}
		nb.retries.Add(1)
		regroup[nIdx] = append(regroup[nIdx], j)
	}
	if len(regroup) == 0 {
		return
	}
	// Pace the retry wave under the unified backoff policy: replaying the
	// sub-batch instantly just marches the same burst one ring step per
	// failure. Attempt depth is how many backends this wave has burned.
	attempt := bits.OnesCount64(jobs[0].tried | 1<<uint(failedIdx))
	if err := c.retry.Sleep(ctx, attempt, c.jitter); err != nil {
		for _, g := range regroup {
			em.emitJobErrors(g, codeBackendDown, "retry abandoned: "+err.Error())
		}
		return
	}
	for nIdx, g := range regroup {
		// Take the target's pipeline slot like any first-try sub-batch; the
		// failed backend's slot was already released, so slot acquisition
		// is ordered and cannot deadlock.
		sems[nIdx] <- struct{}{}
		c.sendSubBatch(ctx, headerLine, nIdx, g, em, sems)
	}
}

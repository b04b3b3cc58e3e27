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
	"strconv"
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

// emitter serializes result lines onto the client response and accounts
// merge-path time. It has one write path, emitRaw: backend result lines are
// relayed verbatim (batch lines with their leading id and index restamped,
// dataset lines untouched), and the coordinator's own lines — errors,
// the merged dataset summary — are marshalled and written the same way.
type emitter struct {
	mu      sync.Mutex
	out     io.Writer
	w       http.Flusher
	mergeNs func(int64)
}

var newline = []byte{'\n'}

// emitRaw writes one line (plus newline) under the merge lock and flushes.
func (e *emitter) emitRaw(line []byte) {
	start := time.Now()
	e.mu.Lock()
	e.out.Write(line)
	e.out.Write(newline)
	if e.w != nil {
		e.w.Flush()
	}
	e.mu.Unlock()
	e.mergeNs(int64(time.Since(start)))
}

// emit marshals one coordinator-authored line and writes it through
// emitRaw.
func (e *emitter) emit(v any) {
	line, _ := json.Marshal(v)
	e.emitRaw(line)
}

// leadingIndex reads the fields crserve writes first on every batch result
// line — an optional "id" string, then "index" — and returns the index and
// the rest of the line after them, which starts at the ',' or '}' that
// follows. A line that is not valid JSON, or does not open with these
// fields, cannot be attributed and reports false.
func leadingIndex(line []byte) (index int, rest []byte, ok bool) {
	if !json.Valid(line) || line[0] != '{' {
		return 0, nil, false
	}
	p := line[1:]
	if id := []byte(`"id":"`); bytes.HasPrefix(p, id) {
		// A valid line's string ends at the first unescaped quote.
		i := len(id)
		for ; i < len(p) && p[i] != '"'; i++ {
			if p[i] == '\\' {
				i++
			}
		}
		if i+1 >= len(p) || p[i+1] != ',' {
			return 0, nil, false
		}
		p = p[i+2:]
	}
	key := []byte(`"index":`)
	if !bytes.HasPrefix(p, key) {
		return 0, nil, false
	}
	p = p[len(key):]
	n := 0
	for n < len(p) && n < 10 && p[n] >= '0' && p[n] <= '9' {
		index = index*10 + int(p[n]-'0')
		n++
	}
	if n == 0 || n == len(p) || (p[n] != ',' && p[n] != '}') {
		return 0, nil, false
	}
	return index, p[n:], true
}

// restamp renders a relayed batch line into b: the coordinator's id for the
// job (left out when empty, as crserve leaves it out) and the client's
// index, then the backend line's remaining fields verbatim. The id is the
// coordinator's own even where the backend wrote none — a backend answers
// a line it could not decode without one.
func restamp(b []byte, j *batchJob, rest []byte) []byte {
	b = append(b, '{')
	if j.id != "" {
		b = append(b, `"id":`...)
		b = appendJSONString(b, j.id)
		b = append(b, ',')
	}
	b = append(b, `"index":`...)
	b = strconv.AppendInt(b, int64(j.index), 10)
	return append(b, rest...)
}

// appendJSONString appends s as encoding/json writes a string: quoted,
// with HTML-sensitive and non-ASCII text escaped by json.Marshal itself;
// plain printable ASCII is its own encoding and appends without it.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
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
	em := &emitter{out: gw, w: gw, mergeNs: func(ns int64) { c.met.batchMergeNs.Add(ns) }}

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
			em.emit(&errorLine{Index: &i, Error: &errorJSON{Code: codeBadRequest, Message: "bad entity line: " + err.Error()}})
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
			em.emit(&errorLine{ID: ek.ID, Index: &i, Error: &errorJSON{Code: codeNoBackend, Message: "no live backend for entity"}})
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
		em.emit(&errorLine{Index: &i, Error: &errorJSON{Code: codeBadRequest, Message: "stream aborted: " + scanErr.Error()}})
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

	size := len(headerLine) + 1
	for _, j := range jobs {
		size += len(j.line) + 1
	}
	var body bytes.Buffer
	body.Grow(size)
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
		c.blame(ctx, b)
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
	var out []byte
	for rs.Scan() {
		line := rs.Bytes()
		if len(line) == 0 {
			continue
		}
		start := time.Now()
		at, rest, ok := leadingIndex(line)
		if !ok || at >= len(jobs) {
			// An unattributable line: nothing to restamp it onto. Skip it;
			// its entity will be rerouted as unanswered below if the stream
			// also failed, or error-reported on clean end.
			c.met.batchMergeNs.Add(int64(time.Since(start)))
			continue
		}
		seen[at] = true
		out = restamp(out[:0], &jobs[at], rest)
		c.met.batchMergeNs.Add(int64(time.Since(start)))
		em.emitRaw(out)
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
		c.blame(ctx, b)
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
		e.emit(&errorLine{ID: j.id, Index: &i, Error: &errorJSON{Code: code, Message: msg}})
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
			em.emit(&errorLine{ID: j.id, Index: &i, Error: &errorJSON{Code: codeNoBackend, Message: "no live backend for entity after retries"}})
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

package shard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"conflictres/internal/httpstream"
)

// job is one entity in flight through a batch or dataset fan-out. Its
// lines always travel together: a hop carries all of them or none.
type job struct {
	body  []byte // the entity's NDJSON lines, each newline-terminated (owned copy)
	rows  []int  // dataset: the client's row number of each line of body
	key   string // routing key
	id    string // batch: the entity id (may be empty); dataset: the display key
	index int    // batch: zero-based index in the client's stream
	tried uint64 // bitmask of backend indices already attempted
	// answered counts the lines of body the current hop's result lines
	// answered: a batch entity's one line, or the rows a dataset result
	// line reports (a split or unclustered entity answers in several).
	answered int
}

// settled reports whether the current hop answered every line of j.
func (j *job) settled() bool { return j.answered >= max(len(j.rows), 1) }

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

// stream is what the batch and dataset fan-outs do differently; the hop,
// the pipelining and the failover are shared.
type stream interface {
	// relay writes one backend result line to the client, counting the
	// lines it answers on the job of h it belongs to, if any.
	relay(h *inflight, line []byte)
	// giveUp answers the unanswered lines of jobs that no backend will
	// resolve with an in-band error.
	giveUp(jobs []job, code, msg string)
}

// inflight is one hop's jobs, in body order, and the scratch a stream
// keeps while it relays the hop's result lines.
type inflight struct {
	jobs []job
	out  []byte         // batch: the restamped line
	byID map[string]int // dataset: job position by display key
}

// fanout is one client stream spread over the fleet.
type fanout struct {
	c      *Coordinator
	client context.Context // the client's request
	path   string          // the backend endpoint
	header []byte          // the client's header line
	// sems holds one pipelining semaphore per backend: a slot is held for
	// the full life of a hop, so at most Pipeline hops are in flight per
	// backend and a dispatcher stalls rather than queueing unbounded work
	// for a slow one.
	sems []chan struct{}
	s    stream
}

func (c *Coordinator) newFanout(client context.Context, path string, header []byte, s stream) *fanout {
	f := &fanout{c: c, client: client, path: path, header: header, s: s, sems: make([]chan struct{}, len(c.backends))}
	for i := range f.sems {
		f.sems[i] = make(chan struct{}, c.cfg.Pipeline)
	}
	return f
}

// wave is where a group of jobs stands in failover: n counts the failed
// hops before it, and deadline, set at the first failure, is when its
// retry budget runs out.
type wave struct {
	n        int
	deadline time.Time
}

// dispatch takes a pipeline slot on backend idx, waiting while Pipeline
// hops are in flight there, and sends jobs on a goroutine that wg counts.
func (f *fanout) dispatch(wg *sync.WaitGroup, idx int, jobs []job, w wave) {
	f.sems[idx] <- struct{}{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.send(idx, jobs, w)
	}()
}

// send makes one hop of jobs to backend idx, whose pipeline slot the
// caller holds, and settles every job the hop leaves unanswered: the
// backend's error envelope answers them all, a transport failure reroutes
// them, and a stream that ended cleanly without their lines reports them.
// A job the failed hop answered only in part is reported, not resent: its
// first lines already reached the client.
func (f *fanout) send(idx int, jobs []job, w wave) {
	h := &inflight{jobs: jobs}
	env, err := f.c.post(f.client, f.c.backends[idx], f.path, f.header, jobs, func(line []byte) { f.s.relay(h, line) })
	<-f.sems[idx]
	left := jobs[:0]
	var partial []job
	for _, j := range jobs {
		switch {
		case j.settled():
		case j.answered > 0 && err != nil:
			partial = append(partial, j)
		default:
			left = append(left, j)
		}
	}
	if len(partial) > 0 {
		f.s.giveUp(partial, codeBackendDown, "backend stream cut after answering part of the rows")
	}
	switch {
	case len(left) == 0:
	case env != nil:
		f.s.giveUp(left, env.Code, env.Message)
	case err == nil:
		// A backend bug rather than a transport failure; report, not loop.
		f.s.giveUp(left, codeBackendDown, "backend closed the stream without answering")
	default:
		f.reroute(idx, left, w)
	}
}

// reroute is the streams' failover: after the hop to backend failed died,
// only its unanswered jobs move, each to its key's next live owner along
// the ring. The wave backs off first under the unified policy. Its retry
// budget starts at the first failure, as in Coordinator.send, and later
// waves of the same jobs share it; it bounds only the pauses, so every hop
// still gets the full per-hop Timeout to stream its results. A pause the
// budget cuts short answers the wave retry_budget_exhausted in-band.
// Replaying an entity is safe: resolution is a pure computation.
func (f *fanout) reroute(failed int, jobs []job, w wave) {
	if w.n == 0 {
		w.deadline = time.Now().Add(f.c.cfg.RetryBudget)
	}
	pause, cancel := context.WithDeadline(f.client, w.deadline)
	err := f.c.retry.Sleep(pause, w.n+1, f.c.jitter)
	cancel()
	if err != nil {
		if f.client.Err() == nil { // the budget ran out, not the client
			f.c.met.retryBudgetExhausted.Add(1)
			f.s.giveUp(jobs, codeRetryBudget, "retry budget exhausted after "+f.c.cfg.RetryBudget.String())
		}
		return
	}
	for i := range jobs {
		jobs[i].tried |= 1 << uint(failed)
	}
	w.n++
	f.spread(jobs, w)
}

// spread routes each job to its first live owner not yet tried, once per
// key per wave so an entity's lines never split, sends one hop per owner
// and waits for them all. Jobs with no owner left answer no_backend.
func (f *fanout) spread(jobs []job, w wave) {
	groups := make(map[int][]job)
	var lost []job
	for _, j := range jobs {
		b, idx := f.c.route(j.key, j.tried)
		if b == nil {
			lost = append(lost, j)
			continue
		}
		if w.n > 0 {
			b.retries.Add(1)
		}
		groups[idx] = append(groups[idx], j)
	}
	if len(lost) > 0 {
		f.c.met.noBackend.Add(int64(len(lost)))
		f.s.giveUp(lost, codeNoBackend, "no live backend")
	}
	var wg sync.WaitGroup
	for idx, g := range groups {
		f.dispatch(&wg, idx, g, w)
	}
	wg.Wait()
}

// post is the streams' one hop: it posts the header line plus the jobs'
// lines to b as one NDJSON request under the per-hop Timeout and hands
// each non-empty response line to each. A non-200 answer is a header-level
// verdict, deterministic on every backend, and comes back as its error
// envelope. A transport failure, before the answer or mid-stream, comes
// back as err once blame has judged b on ctx.
func (c *Coordinator) post(ctx context.Context, b *backend, path string, header []byte, jobs []job, each func(line []byte)) (env *errorJSON, err error) {
	size := len(header) + 1
	for i := range jobs {
		size += len(jobs[i].body)
	}
	body := append(make([]byte, 0, size), header...)
	body = appendLines(append(body, '\n'), jobs)

	b.requests.Add(1)
	hop, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(hop, http.MethodPost, b.url+path, bytes.NewReader(body))
	if err != nil {
		return &errorJSON{Code: codeBadRequest, Message: err.Error()}, nil
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		c.blame(ctx, b)
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error *errorJSON `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != nil {
			return e.Error, nil
		}
		return &errorJSON{Code: codeBadRequest, Message: fmt.Sprintf("backend answered %d", resp.StatusCode)}, nil
	}
	rs := bufio.NewScanner(resp.Body)
	rs.Buffer(make([]byte, 64<<10), int(c.cfg.MaxBodyBytes))
	for rs.Scan() {
		if line := rs.Bytes(); len(line) > 0 {
			each(line)
		}
	}
	if err := rs.Err(); err != nil {
		c.blame(ctx, b)
		return nil, err
	}
	return nil, nil
}

// appendLines appends the jobs' lines in the client's order. A hop's batch
// jobs are one line each and already in that order. A dataset's entities
// may interleave in the client's input, and a backend windows its rows by
// contiguity, so their rows are merged back by row number: each backend
// sees its share of the input in input order, as a single crserve would.
func appendLines(b []byte, jobs []job) []byte {
	type row struct {
		n    int
		line []byte
	}
	var rows []row
	for i := range jobs {
		if jobs[i].rows == nil {
			b = append(b, jobs[i].body...)
			continue
		}
		rest := jobs[i].body
		for _, n := range jobs[i].rows {
			end := bytes.IndexByte(rest, '\n') + 1
			rows = append(rows, row{n, rest[:end]})
			rest = rest[end:]
		}
	}
	slices.SortFunc(rows, func(x, y row) int { return x.n - y.n })
	for _, r := range rows {
		b = append(b, r.line...)
	}
	return b
}

// handleBatch is POST /v1/resolve/batch on the coordinator: the same NDJSON
// contract as a single crserve, fanned out across the fleet. Entities are
// routed by id on the ring, grouped into per-backend sub-batches of
// ChunkEntities lines, and pipelined with at most Pipeline sub-batches in
// flight per backend (the reader blocks past that, so client back-pressure
// reaches the slowest backend). Results stream back in completion order
// restamped with the client's entity indices. A backend that dies
// mid-sub-batch is marked down and the sub-batch's unanswered entities are
// rerouted along the ring (see fanout.reroute).
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
	if code, err := checkHeader(&hdr.ruleSetJSON, hdr.Mode); err != nil {
		c.writeError(w, http.StatusBadRequest, code, err.Error())
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	em := batchStream{&emitter{out: gw, w: gw, mergeNs: func(ns int64) { c.met.batchMergeNs.Add(ns) }}}
	f := c.newFanout(r.Context(), "/v1/resolve/batch", headerLine, em)

	var wg sync.WaitGroup
	pending := make(map[int][]job, len(c.backends))
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
			em.giveUp([]job{{id: ek.ID, index: i}}, codeNoBackend, "no live backend for entity")
			continue
		}
		body := append(make([]byte, 0, len(line)+1), line...)
		pending[bIdx] = append(pending[bIdx], job{body: append(body, '\n'), index: i, id: ek.ID, key: key})
		if len(pending[bIdx]) >= c.cfg.ChunkEntities {
			f.dispatch(&wg, bIdx, pending[bIdx], wave{})
			pending[bIdx] = nil
		}
	}
	scanErr := sc.Err()
	for bIdx, jobs := range pending {
		if len(jobs) > 0 {
			f.dispatch(&wg, bIdx, jobs, wave{})
		}
	}
	wg.Wait()
	if scanErr != nil {
		i := index
		em.emit(&errorLine{Index: &i, Error: &errorJSON{Code: codeBadRequest, Message: "stream aborted: " + scanErr.Error()}})
	}
}

// batchStream attributes batch result lines by the index crserve writes
// first and answers given-up entities one error line each.
type batchStream struct{ *emitter }

// relay restamps a backend line onto the job at its index in the hop and
// writes it; it allocates nothing once the hop's buffer has grown. A line
// it cannot attribute is skipped: its entity stays unanswered.
func (s batchStream) relay(h *inflight, line []byte) {
	start := time.Now()
	at, rest, ok := leadingIndex(line)
	if !ok || at >= len(h.jobs) {
		s.mergeNs(int64(time.Since(start)))
		return
	}
	h.jobs[at].answered++
	h.out = restamp(h.out[:0], &h.jobs[at], rest)
	s.mergeNs(int64(time.Since(start)))
	s.emitRaw(h.out)
}

func (s batchStream) giveUp(jobs []job, code, msg string) {
	for _, j := range jobs {
		i := j.index
		s.emit(&errorLine{ID: j.id, Index: &i, Error: &errorJSON{Code: code, Message: msg}})
	}
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
func restamp(b []byte, j *job, rest []byte) []byte {
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

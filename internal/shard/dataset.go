package shard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"conflictres/internal/relation"
)

// keySep joins multi-column dataset keys — the same non-printing separator
// the dataset engine uses, so coordinator routing and backend grouping
// agree on key identity.
const keySep = "\x1f"

// dsAccount merges per-backend dataset outcomes into one client summary.
// Outcome counters (entities/resolved/invalid/failed/cached) are computed
// coordinator-side from the result lines actually relayed, so they
// reconcile with the merged output even across failovers; windows, splits
// and backend-side drops are summed from the backend summary lines.
type dsAccount struct {
	mu       sync.Mutex
	entities int64
	resolved int64
	invalid  int64
	failed   int64
	cached   int64
	windows  int64
	split    int64
	dropped  int64
}

// handleDataset is POST /v1/resolve/dataset on the coordinator: the same
// NDJSON contract as a single crserve, partitioned across the fleet. Rows
// are routed by entity key on the ring — every entity's rows land on one
// backend, so grouping and resolution happen there — and each backend
// receives its partition as one ordinary dataset request. Result lines
// are relayed verbatim as backends stream them; the per-backend summary
// lines are absorbed into one merged summary. A backend that dies
// mid-partition is marked down and its whole partition is retried on the
// next live backend, with results already relayed deduplicated by key.
func (c *Coordinator) handleDataset(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sc := bufio.NewScanner(r.Body)
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
		c.writeError(w, http.StatusBadRequest, codeBadRequest, "empty dataset: missing header line")
		return
	}
	headerLine := append([]byte(nil), sc.Bytes()...)
	var hdr datasetHeader
	if err := json.Unmarshal(headerLine, &hdr); err != nil {
		c.writeError(w, http.StatusBadRequest, codeBadRequest, "bad header line: "+err.Error())
		return
	}
	if len(hdr.Key) == 0 {
		c.writeError(w, http.StatusBadRequest, codeBadRequest, `header needs "key": [column, ...]`)
		return
	}
	if err := compileHeaderRules(&hdr.ruleSetJSON); err != nil {
		c.writeError(w, http.StatusBadRequest, codeBadRules, err.Error())
		return
	}
	keyFn, err := rowKeyFunc(&hdr)
	if err != nil {
		c.writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}

	// Partition rows by the ring alone, ignoring liveness: an entity's rows
	// must stay together no matter when a backend flaps, and send-time
	// failover moves whole partitions so entities never split.
	partitions := make([][][]byte, len(c.backends))
	var rows int64
	var rowErr error
	for sc.Scan() {
		line := sc.Bytes()
		if len(strings.TrimSpace(string(line))) == 0 {
			continue
		}
		key, err := keyFn(line)
		if err != nil {
			rowErr = fmt.Errorf("row %d: %w", rows+1, err)
			break
		}
		rows++
		idx := c.ring.Owner(key)
		partitions[idx] = append(partitions[idx], append([]byte(nil), line...))
	}
	if rowErr == nil {
		rowErr = sc.Err()
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	em := &emitter{out: w, w: flusher, mergeNs: func(ns int64) { c.met.datasetMergeNs.Add(ns) }}
	acc := &dsAccount{}

	if rowErr != nil {
		// Mirror the single-node contract: an input failure aborts before
		// any partition is dispatched — an error-truncated stream must not
		// produce normal-looking results from part of its rows.
		em.emit(&errorLine{Error: &errorJSON{Code: codeBadRequest, Message: "stream aborted: " + rowErr.Error()}})
	} else {
		var wg sync.WaitGroup
		for idx, part := range partitions {
			if len(part) == 0 {
				continue
			}
			wg.Add(1)
			go func(idx int, part [][]byte) {
				defer wg.Done()
				c.sendPartition(r.Context(), headerLine, idx, part, em, acc)
			}(idx, part)
		}
		wg.Wait()
	}

	wall := time.Since(start)
	sum := &datasetSummaryJSON{
		Rows:          rows,
		Entities:      acc.entities,
		Resolved:      acc.resolved,
		Invalid:       acc.invalid,
		Failed:        acc.failed,
		Cached:        acc.cached,
		Windows:       acc.windows,
		SplitEntities: acc.split,
		Dropped:       acc.dropped,
		WallUs:        int64(wall / time.Microsecond),
	}
	if wall > 0 {
		sum.RowsPerSec = float64(rows) / wall.Seconds()
	}
	em.emit(map[string]*datasetSummaryJSON{"summary": sum})
}

// rowKeyFunc builds the per-row routing key extractor for the header's row
// shape: JSON objects keyed by column name, or arrays aligned to the
// declared column list. Key cells decode through the same scalar codec as
// the dataset engine, so "1" and "1.0" route (and group) identically.
func rowKeyFunc(hdr *datasetHeader) (func(line []byte) (string, error), error) {
	if len(hdr.Columns) == 0 {
		keys := hdr.Key
		return func(line []byte) (string, error) {
			var obj map[string]json.RawMessage
			if err := json.Unmarshal(line, &obj); err != nil {
				return "", err
			}
			parts := make([]string, len(keys))
			for i, k := range keys {
				raw, ok := obj[k]
				if !ok {
					return "", fmt.Errorf("missing key field %q", k)
				}
				v, err := relation.FromJSONScalar(raw)
				if err != nil {
					return "", fmt.Errorf("key field %q: %w", k, err)
				}
				parts[i] = v.String()
			}
			return strings.Join(parts, keySep), nil
		}, nil
	}
	pos := make(map[string]int, len(hdr.Columns))
	for i, col := range hdr.Columns {
		pos[strings.TrimSpace(col)] = i
	}
	keyIdx := make([]int, len(hdr.Key))
	need := 0
	for i, k := range hdr.Key {
		idx, ok := pos[k]
		if !ok {
			return nil, fmt.Errorf("key column %q not in columns %v", k, hdr.Columns)
		}
		keyIdx[i] = idx
		if idx+1 > need {
			need = idx + 1
		}
	}
	return func(line []byte) (string, error) {
		var arr []json.RawMessage
		if err := json.Unmarshal(line, &arr); err != nil {
			return "", err
		}
		if len(arr) < need {
			return "", fmt.Errorf("row has %d values, key needs %d", len(arr), need)
		}
		parts := make([]string, len(keyIdx))
		for i, idx := range keyIdx {
			v, err := relation.FromJSONScalar(arr[idx])
			if err != nil {
				return "", fmt.Errorf("key column %d: %w", idx, err)
			}
			parts[i] = v.String()
		}
		return strings.Join(parts, keySep), nil
	}, nil
}

// sendPartition streams one backend's row partition through the fleet,
// walking backends until the partition completes or every backend has been
// tried. Retries re-send the whole partition — resolution is pure, so
// replays are safe — and skip result lines whose key was already relayed
// by an earlier (failed) attempt; duplicate keys within one attempt are
// legitimate window splits and pass through.
func (c *Coordinator) sendPartition(ctx context.Context, headerLine []byte, primaryIdx int, part [][]byte, em *emitter, acc *dsAccount) {
	prevEmitted := make(map[string]bool)
	var tried uint64
	idx := primaryIdx
	attempt := 0
	for {
		if tried&(1<<uint(idx)) != 0 || !c.backends[idx].up.Load() {
			tried |= 1 << uint(idx)
			next, ok := nextUntried(tried, idx, len(c.backends))
			if !ok {
				c.giveUpPartition(part, em, acc)
				return
			}
			idx = next
			continue
		}
		b := c.backends[idx]
		if attempt > 0 {
			b.retries.Add(1)
		}
		tried |= 1 << uint(idx)

		done, emitted := c.streamPartition(ctx, headerLine, b, part, em, acc, prevEmitted)
		for k := range emitted {
			prevEmitted[k] = true
		}
		if done {
			return
		}
		attempt++
		next, ok := nextUntried(tried, idx, len(c.backends))
		if !ok {
			c.giveUpPartition(part, em, acc)
			return
		}
		idx = next
	}
}

// nextUntried returns the next backend index after from (wrapping) whose
// tried bit is clear.
func nextUntried(tried uint64, from, n int) (int, bool) {
	for i := 1; i <= n; i++ {
		idx := (from + i) % n
		if tried&(1<<uint(idx)) == 0 {
			return idx, true
		}
	}
	return 0, false
}

// giveUpPartition accounts a partition no live backend could take: its
// unanswered rows are counted as dropped and one in-band error line tells
// the client which slice of the input went unresolved.
func (c *Coordinator) giveUpPartition(part [][]byte, em *emitter, acc *dsAccount) {
	c.met.noBackend.Add(1)
	acc.mu.Lock()
	acc.dropped += int64(len(part))
	acc.mu.Unlock()
	em.emit(&errorLine{Error: &errorJSON{
		Code:    codeNoBackend,
		Message: fmt.Sprintf("no live backend for a partition of %d rows", len(part)),
	}})
}

// streamPartition performs one attempt: POST the partition to b and relay
// its result lines. It reports whether the partition completed (summary
// seen or stream ended cleanly) and which keys were relayed this attempt.
func (c *Coordinator) streamPartition(ctx context.Context, headerLine []byte, b *backend, part [][]byte, em *emitter, acc *dsAccount, prevEmitted map[string]bool) (done bool, emitted map[string]bool) {
	emitted = make(map[string]bool)

	var body bytes.Buffer
	body.Write(headerLine)
	body.WriteByte('\n')
	for _, line := range part {
		body.Write(line)
		body.WriteByte('\n')
	}

	b.requests.Add(1)
	reqCtx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, b.url+"/v1/resolve/dataset", &body)
	if err != nil {
		em.emit(&errorLine{Error: &errorJSON{Code: codeBadRequest, Message: err.Error()}})
		acc.mu.Lock()
		acc.dropped += int64(len(part))
		acc.mu.Unlock()
		return true, emitted
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		c.blame(ctx, b)
		return false, emitted
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Header-level verdict: deterministic on every backend, so don't
		// retry. Relay the envelope in-band once for this partition.
		var env struct {
			Error *errorJSON `json:"error"`
		}
		code, msg := codeBadRequest, fmt.Sprintf("backend answered %d", resp.StatusCode)
		if json.NewDecoder(resp.Body).Decode(&env) == nil && env.Error != nil {
			code, msg = env.Error.Code, env.Error.Message
		}
		em.emit(&errorLine{Error: &errorJSON{Code: code, Message: msg}})
		acc.mu.Lock()
		acc.dropped += int64(len(part))
		acc.mu.Unlock()
		return true, emitted
	}

	rs := bufio.NewScanner(resp.Body)
	rs.Buffer(make([]byte, 64<<10), int(c.cfg.MaxBodyBytes))
	for rs.Scan() {
		line := rs.Bytes()
		if len(line) == 0 {
			continue
		}
		start := time.Now()
		var dl dsLine
		if err := json.Unmarshal(line, &dl); err != nil {
			c.met.datasetMergeNs.Add(int64(time.Since(start)))
			continue
		}
		if dl.Summary != nil {
			var sum datasetSummaryJSON
			if json.Unmarshal(dl.Summary, &sum) == nil {
				acc.mu.Lock()
				acc.windows += sum.Windows
				acc.split += sum.SplitEntities
				acc.dropped += sum.Dropped
				acc.mu.Unlock()
			}
			c.met.datasetMergeNs.Add(int64(time.Since(start)))
			continue
		}
		if prevEmitted[dl.ID] {
			// A failed earlier attempt already relayed this entity; the
			// replay recomputed it (resolution is deterministic) — drop the
			// duplicate line.
			c.met.datasetMergeNs.Add(int64(time.Since(start)))
			continue
		}
		emitted[dl.ID] = true
		acc.mu.Lock()
		acc.entities++
		switch {
		case len(dl.Error) > 0 && string(dl.Error) != "null":
			acc.failed++
		case dl.Valid:
			acc.resolved++
		default:
			acc.invalid++
		}
		if dl.Cached {
			acc.cached++
		}
		acc.mu.Unlock()
		c.met.datasetMergeNs.Add(int64(time.Since(start)))
		em.emitRaw(line)
	}
	if err := rs.Err(); err != nil {
		c.blame(ctx, b)
		return false, emitted
	}
	return true, emitted
}

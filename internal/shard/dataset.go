package shard

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"conflictres/internal/dataset"
	"conflictres/internal/relation"
)

// keySep joins multi-column dataset keys — the same non-printing separator
// the dataset engine uses, so coordinator routing and backend grouping
// agree on key identity.
const keySep = "\x1f"

// dsStream relays dataset result lines and merges per-backend outcomes
// into one client summary. Outcome counters (entities/resolved/invalid/
// failed/cached) are computed coordinator-side from the result lines
// actually relayed, so they reconcile with the merged output even across
// failovers; windows, splits and backend-side drops are summed from the
// backend summary lines, and rows no backend resolved count as dropped.
type dsStream struct {
	*emitter
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
// are grouped by entity key and each entity is routed on the ring — its
// rows always travel together, so grouping and resolution happen on one
// backend — and each backend receives its entities as one ordinary
// dataset request, their rows in the client's order. Result lines are
// relayed verbatim as backends stream them; the per-backend summary lines
// are absorbed into one merged summary. A backend that dies mid-stream is marked down and only the
// entities it left unanswered move, each to its own next owner along the
// ring, under the same backoff and retry budget as batch failover.
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
	if code, err := checkHeader(&hdr.ruleSetJSON, hdr.Mode); err != nil {
		c.writeError(w, http.StatusBadRequest, code, err.Error())
		return
	}
	keyFn, err := rowKeyFunc(&hdr)
	if err != nil {
		c.writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}

	// One job per entity, its rows numbered in input order. Jobs are keyed
	// by the display key result lines carry, so two keys that display alike (a
	// composite key with a comma in a cell) travel as one entity and every
	// result line attributes to exactly one job.
	var jobs []job
	byID := make(map[string]int)
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
		id := dataset.DisplayKey(key)
		i, ok := byID[id]
		if !ok {
			i = len(jobs)
			byID[id] = i
			jobs = append(jobs, job{key: key, id: id})
		}
		jobs[i].body = append(append(jobs[i].body, line...), '\n')
		jobs[i].rows = append(jobs[i].rows, int(rows))
	}
	if rowErr == nil {
		rowErr = sc.Err()
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	ds := &dsStream{emitter: &emitter{out: w, w: flusher, mergeNs: func(ns int64) { c.met.datasetMergeNs.Add(ns) }}}
	if rowErr != nil {
		// Mirror the single-node contract: an input failure aborts before
		// any entity is dispatched — an error-truncated stream must not
		// produce normal-looking results from part of its rows.
		ds.emit(&errorLine{Error: &errorJSON{Code: codeBadRequest, Message: "stream aborted: " + rowErr.Error()}})
	} else {
		c.newFanout(r.Context(), "/v1/resolve/dataset", headerLine, ds).spread(jobs, wave{})
	}

	wall := time.Since(start)
	sum := &datasetSummaryJSON{
		Rows:          rows,
		Entities:      ds.entities,
		Resolved:      ds.resolved,
		Invalid:       ds.invalid,
		Failed:        ds.failed,
		Cached:        ds.cached,
		Windows:       ds.windows,
		SplitEntities: ds.split,
		Dropped:       ds.dropped,
		WallUs:        int64(wall / time.Microsecond),
	}
	if wall > 0 {
		sum.RowsPerSec = float64(rows) / wall.Seconds()
	}
	ds.emit(map[string]*datasetSummaryJSON{"summary": sum})
}

// relay absorbs a backend summary line into the merged counters, and
// relays any other line verbatim, attributing it to the job of h whose
// display key it carries. A window split or an unclustered entity answers
// in several lines, each reporting its rows; all of them pass through, and
// the job is settled once they cover all of its rows.
func (s *dsStream) relay(h *inflight, line []byte) {
	start := time.Now()
	var dl dsLine
	if json.Unmarshal(line, &dl) != nil {
		s.mergeNs(int64(time.Since(start)))
		return
	}
	if dl.Summary != nil {
		var sum datasetSummaryJSON
		if json.Unmarshal(dl.Summary, &sum) == nil {
			s.mu.Lock()
			s.windows += sum.Windows
			s.split += sum.SplitEntities
			s.dropped += sum.Dropped
			s.mu.Unlock()
		}
		s.mergeNs(int64(time.Since(start)))
		return
	}
	if h.byID == nil {
		h.byID = make(map[string]int, len(h.jobs))
		for i := range h.jobs {
			h.byID[h.jobs[i].id] = i
		}
	}
	if i, ok := h.byID[dl.ID]; ok {
		h.jobs[i].answered += dl.Rows
	}
	s.mu.Lock()
	s.entities++
	switch {
	case len(dl.Error) > 0 && string(dl.Error) != "null":
		s.failed++
	case dl.Valid:
		s.resolved++
	default:
		s.invalid++
	}
	if dl.Cached {
		s.cached++
	}
	s.mu.Unlock()
	s.mergeNs(int64(time.Since(start)))
	s.emitRaw(line)
}

// giveUp counts the jobs' unanswered rows as dropped and tells the client,
// in one error line, how much of the input went unresolved.
func (s *dsStream) giveUp(jobs []job, code, msg string) {
	rows := 0
	for _, j := range jobs {
		rows += len(j.rows) - j.answered
	}
	s.mu.Lock()
	s.dropped += int64(rows)
	s.mu.Unlock()
	s.emit(&errorLine{Error: &errorJSON{Code: code, Message: fmt.Sprintf("%s: %d entities (%d rows) unresolved", msg, len(jobs), rows)}})
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

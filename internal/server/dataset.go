package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"conflictres"
	"conflictres/internal/dataset"
	"conflictres/internal/httpstream"
	"conflictres/internal/relation"
)

// datasetHeader is the first NDJSON line of a dataset-resolution request.
// It extends the shared rule-set header with the dataset shape: which
// columns identify an entity, and (for array-shaped rows) the column list.
type datasetHeader struct {
	ruleSetJSON
	// Key names the entity-key columns. Required.
	Key []string `json:"key"`
	// Columns, when present, declares array-shaped rows aligned to this
	// column list; when absent, rows are objects mapping column names to
	// values.
	Columns []string `json:"columns,omitempty"`
	// Sorted declares the stream clustered by key (entities flush eagerly).
	Sorted bool `json:"sorted,omitempty"`
	// WindowRows overrides the grouping window (bounded server-side).
	WindowRows int `json:"windowRows,omitempty"`
	MaxRounds  int `json:"maxRounds,omitempty"`
	// Mode selects the resolution strategy for every entity in the stream.
	Mode string `json:"mode,omitempty"`
}

// maxWindowRows caps client-requested grouping windows so one request
// cannot buffer unbounded rows server-side.
const maxWindowRows = 1 << 20

// readLineBounded reads one newline-terminated line from br, failing with
// bufio.ErrTooLong once the line exceeds max bytes — it never buffers more
// than max, so a header with no newline cannot exhaust server memory.
func readLineBounded(br *bufio.Reader, max int64) (string, error) {
	var sb strings.Builder
	for {
		chunk, err := br.ReadSlice('\n')
		if int64(sb.Len())+int64(len(chunk)) > max {
			return "", bufio.ErrTooLong
		}
		sb.Write(chunk)
		switch err {
		case nil:
			return sb.String(), nil
		case bufio.ErrBufferFull:
			continue
		default:
			// io.EOF (possibly with a final unterminated line) or a read
			// failure; report it with whatever was gathered.
			return sb.String(), err
		}
	}
}

// datasetResolver binds each grouped entity to the rule set and resolves
// it through resolveEntity, holding a slot of sem while it does so that
// Config.Workers bounds true solver concurrency even after timeouts.
func (s *Server) datasetResolver(ctx context.Context, rules *conflictres.RuleSet, rk cacheKey, maxRounds int, mode conflictres.ResolutionMode, sem chan struct{}) dataset.Resolver {
	return func(_ string, in *relation.Instance) dataset.Outcome {
		spec, err := conflictres.NewSpecFromRules(in, rules)
		if err != nil {
			return dataset.Outcome{Err: &codedErr{codeBadEntity, err}}
		}
		sem <- struct{}{}
		res, cached, err := s.resolveEntity(ctx, rules, specKey(rk, spec, nil, mode), spec, maxRounds, mode, func() { <-sem })
		if err != nil {
			return dataset.Outcome{Err: err}
		}
		out := dataset.Outcome{Valid: res.Valid, Tuple: res.Tuple, Resolved: res.Resolved, Cached: cached}
		if !cached {
			out.Timing = res.Timing
		}
		return out
	}
}

// wireWriter adapts the HTTP response to the dataset engine's Writer: one
// resultJSON line per entity, flushed as it completes.
type wireWriter struct {
	s       *Server
	enc     *json.Encoder
	flusher http.Flusher
	sch     *conflictres.Schema
}

func (w *wireWriter) Write(res *dataset.Result) error {
	out := &resultJSON{ID: dataset.DisplayKey(res.Key), Rows: res.Rows, Cached: res.Cached}
	if res.Err != nil {
		out.Error = w.s.entityError(res.Err)
	} else if res.Valid {
		out.Valid = true
		out.Resolved, out.Tuple = encodeResolved(w.sch, res.Resolved, res.Tuple)
	}
	if err := w.enc.Encode(out); err != nil {
		return err
	}
	if w.flusher != nil {
		w.flusher.Flush()
	}
	return nil
}

func (w *wireWriter) Flush() error { return nil }

// datasetSummaryJSON is the trailing summary line of a dataset response.
type datasetSummaryJSON struct {
	Rows     int64 `json:"rows"`
	Entities int64 `json:"entities"`
	Resolved int64 `json:"resolved"`
	Invalid  int64 `json:"invalid"`
	Failed   int64 `json:"failed"`
	Cached   int64 `json:"cached"`
	Windows  int64 `json:"windows"`
	// SplitEntities counts keys resolved more than once because their rows
	// spanned a grouping-window flush — each chunk computed from a partial
	// instance; cluster the stream by key or raise windowRows.
	SplitEntities int64 `json:"splitEntities,omitempty"`
	// Dropped counts results lost after a response-write failure; the
	// outcome counters above only describe result lines actually sent.
	Dropped    int64   `json:"dropped,omitempty"`
	WallUs     int64   `json:"wallUs"`
	RowsPerSec float64 `json:"rowsPerSec"`
}

// handleDataset is POST /v1/resolve/dataset: NDJSON streaming over a whole
// relation. The header line carries the rule set plus the dataset shape
// (key columns, optional column list); every following line is one row.
// Rows are grouped into entities, resolved over the worker pool through
// the result cache, and streamed back one result line per entity followed
// by a summary line.
func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	// Result lines are gated until the row stream is fully received: the
	// engine resolves entities while rows are still arriving, and an early
	// response write would close the half-read request body (HTTP/1.1
	// cannot full-duplex; see httpstream).
	gw := httpstream.NewGatedWriter(w)
	defer gw.Open() // cover reads that stop short of body EOF
	br := bufio.NewReaderSize(gw.BodyEOF(r.Body), 64<<10)
	headerLine, err := readLineBounded(br, s.cfg.MaxBodyBytes)
	if errors.Is(err, bufio.ErrTooLong) {
		s.writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
			fmt.Sprintf("header line exceeds %d bytes", s.cfg.MaxBodyBytes))
		return
	}
	if err != nil && headerLine == "" {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, "empty dataset: missing header line")
		return
	}
	var hdr datasetHeader
	if err := json.Unmarshal([]byte(headerLine), &hdr); err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, "bad header line: "+err.Error())
		return
	}
	if len(hdr.Key) == 0 {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, `header needs "key": [column, ...]`)
		return
	}
	rules, rk, mode, ok := s.compileRequest(w, &hdr.ruleSetJSON, hdr.Mode)
	if !ok {
		return
	}
	sch := rules.Schema()

	var reader *dataset.NDJSONReader
	if len(hdr.Columns) > 0 {
		reader, err = dataset.NewNDJSONArrayReader(br, sch, hdr.Columns, hdr.Key)
	} else {
		reader, err = dataset.NewNDJSONReader(br, sch, hdr.Key)
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	// Row lines obey the same size cap as the header and batch lines.
	reader.SetMaxLineBytes(int(s.cfg.MaxBodyBytes))

	windowRows := hdr.WindowRows
	if windowRows > maxWindowRows {
		windowRows = maxWindowRows
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(gw)
	ww := &wireWriter{s: s, enc: enc, flusher: gw, sch: sch}

	sem := make(chan struct{}, s.cfg.Workers)
	stats, runErr := dataset.Run(r.Context(), sch, reader,
		s.datasetResolver(r.Context(), rules, rk, hdr.MaxRounds, mode, sem), ww,
		dataset.Options{
			Shards:     s.cfg.Workers,
			WindowRows: windowRows,
			Sorted:     hdr.Sorted,
		})
	s.met.datasetRows.Add(stats.RowsRead)
	if runErr != nil {
		// The status line is long gone; report the failure in-band.
		code, _ := scanErrClass(runErr)
		enc.Encode(&resultJSON{Error: &errorJSON{Code: code, Message: "stream aborted: " + runErr.Error()}})
	}
	enc.Encode(map[string]*datasetSummaryJSON{"summary": {
		Rows:          stats.RowsRead,
		Entities:      stats.Entities,
		Resolved:      stats.Resolved,
		Invalid:       stats.Invalid,
		Failed:        stats.Failed,
		Cached:        stats.Cached,
		Windows:       stats.Windows,
		SplitEntities: stats.SplitEntities,
		Dropped:       stats.Dropped,
		WallUs:        int64(stats.Wall / time.Microsecond),
		RowsPerSec:    stats.RowsPerSec(),
	}})
	gw.Open()
	gw.Flush()
}

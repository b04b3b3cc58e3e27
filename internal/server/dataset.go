package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"conflictres"
	"conflictres/internal/dataset"
	"conflictres/internal/httpstream"
	"conflictres/internal/relation"
	"conflictres/internal/wire"
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

// bodyReaders recycles the dataset handler's body readers; dataset.Run
// reads its rows from one and is done with it when it returns.
var bodyReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, wire.LineBufSize) }}

// readLineBounded reads one newline-terminated line from br, failing with
// bufio.ErrTooLong once the line exceeds max bytes — it never buffers more
// than max, so a header with no newline cannot exhaust server memory.
func readLineBounded(br *bufio.Reader, max int64) ([]byte, error) {
	var line []byte
	for {
		chunk, err := br.ReadSlice('\n')
		if int64(len(line))+int64(len(chunk)) > max {
			return nil, bufio.ErrTooLong
		}
		line = append(line, chunk...)
		switch err {
		case nil:
			return line, nil
		case bufio.ErrBufferFull:
			continue
		default:
			// io.EOF (possibly with a final unterminated line) or a read
			// failure; report it with whatever was gathered.
			return line, err
		}
	}
}

// datasetStreamHeader returns a dataset stream's compiled header: looked
// up if the line was seen before, decoded, checked and compiled otherwise,
// answering 400 itself on a bad one.
func (s *Server) datasetStreamHeader(w http.ResponseWriter, line []byte) (*compiledHeader, bool) {
	key := headerKey("#dataset-header", line)
	if h, ok := s.cachedHeader(key); ok {
		return h, true
	}
	hdr := new(datasetHeader)
	if err := json.Unmarshal(line, hdr); err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, "bad header line: "+err.Error())
		return nil, false
	}
	if len(hdr.Key) == 0 {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, `header needs "key": [column, ...]`)
		return nil, false
	}
	return s.compileHeader(w, key, &hdr.ruleSetJSON, hdr.Mode, hdr.MaxRounds, hdr)
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
// result line per entity, flushed as it completes.
type wireWriter struct {
	s  *Server
	lw *lineWriter
}

func (w *wireWriter) Write(res *dataset.Result) error {
	out := resultLine{id: dataset.DisplayKey(res.Key), index: -1, rows: res.Rows, cached: res.Cached}
	if res.Err != nil {
		out.err = w.s.entityError(res.Err)
	} else if res.Valid {
		out.valid = true
		out.resolved, out.tuple = res.Resolved, res.Tuple
	}
	w.lw.write(&out)
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
	br := bodyReaders.Get().(*bufio.Reader)
	br.Reset(gw.BodyEOF(r.Body))
	defer func() {
		br.Reset(nil)
		bodyReaders.Put(br)
	}()
	headerLine, err := readLineBounded(br, s.cfg.MaxBodyBytes)
	if errors.Is(err, bufio.ErrTooLong) {
		s.writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
			fmt.Sprintf("header line exceeds %d bytes", s.cfg.MaxBodyBytes))
		return
	}
	if err != nil && len(headerLine) == 0 {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, "empty dataset: missing header line")
		return
	}
	h, ok := s.datasetStreamHeader(w, headerLine)
	if !ok {
		return
	}
	hdr, sch := h.ds, h.rules.Schema()

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
	lw := &lineWriter{gw: gw, enc: h.enc}

	sem := make(chan struct{}, s.cfg.Workers)
	stats, runErr := dataset.Run(r.Context(), sch, reader,
		s.datasetResolver(r.Context(), h.rules, h.rk, h.maxRounds, h.mode, sem), &wireWriter{s: s, lw: lw},
		dataset.Options{
			Shards:     s.cfg.Workers,
			WindowRows: windowRows,
			Sorted:     hdr.Sorted,
		})
	s.met.datasetRows.Add(stats.RowsRead)
	enc := json.NewEncoder(gw)
	if runErr != nil {
		// The status line is long gone; report the failure in-band.
		code, _ := scanErrClass(runErr)
		lw.write(&resultLine{index: -1, err: &errorJSON{Code: code, Message: "stream aborted: " + runErr.Error()}})
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

package shard

import "encoding/json"

// The coordinator speaks crserve's /v1 wire formats but never resolves
// anything itself, so it mirrors only the envelope fields it must inspect
// and keeps every value it merely relays as raw JSON — numeric fidelity
// (int vs float) and field contents pass through byte-identical.

// ruleSetJSON mirrors the shared rule-set header fields.
type ruleSetJSON struct {
	Schema   []string `json:"schema"`
	Currency []string `json:"currency,omitempty"`
	CFDs     []string `json:"cfds,omitempty"`
	Trust    []string `json:"trust,omitempty"`
}

// batchHeader mirrors the first NDJSON line of a batch request.
type batchHeader struct {
	ruleSetJSON
	MaxRounds int    `json:"maxRounds,omitempty"`
	Mode      string `json:"mode,omitempty"`
}

// datasetHeader mirrors the first NDJSON line of a dataset request.
type datasetHeader struct {
	ruleSetJSON
	Key        []string `json:"key"`
	Columns    []string `json:"columns,omitempty"`
	Sorted     bool     `json:"sorted,omitempty"`
	WindowRows int      `json:"windowRows,omitempty"`
	MaxRounds  int      `json:"maxRounds,omitempty"`
	Mode       string   `json:"mode,omitempty"`
}

// entityKey pulls just the entity id out of an entity line or a
// single-resolve request body — all the coordinator needs for routing.
type entityKey struct {
	ID string `json:"id"`
}

// keyedRequest matches any /v1/resolve-shaped body far enough to route it.
type keyedRequest struct {
	Entity entityKey `json:"entity"`
}

// errorJSON mirrors the structured error envelope.
type errorJSON struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorLine is a result line the coordinator writes itself: an in-band
// error, in crserve's field order (id and index first, then valid).
type errorLine struct {
	ID    string     `json:"id,omitempty"`
	Index *int       `json:"index,omitempty"`
	Valid bool       `json:"valid"`
	Error *errorJSON `json:"error,omitempty"`
}

// dsLine classifies one dataset response line: result lines carry an id and
// outcome fields, the trailing summary line carries only "summary". The
// raw line is relayed verbatim; these fields just drive merge accounting.
type dsLine struct {
	ID      string          `json:"id"`
	Rows    int             `json:"rows"`
	Valid   bool            `json:"valid"`
	Cached  bool            `json:"cached"`
	Error   json.RawMessage `json:"error"`
	Summary json.RawMessage `json:"summary"`
}

// datasetSummaryJSON mirrors the dataset summary line for merging.
type datasetSummaryJSON struct {
	Rows          int64   `json:"rows"`
	Entities      int64   `json:"entities"`
	Resolved      int64   `json:"resolved"`
	Invalid       int64   `json:"invalid"`
	Failed        int64   `json:"failed"`
	Cached        int64   `json:"cached"`
	Windows       int64   `json:"windows"`
	SplitEntities int64   `json:"splitEntities,omitempty"`
	Dropped       int64   `json:"dropped,omitempty"`
	WallUs        int64   `json:"wallUs"`
	RowsPerSec    float64 `json:"rowsPerSec"`
}

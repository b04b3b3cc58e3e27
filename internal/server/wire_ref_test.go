package server

// The reflective wire shapes the server wrote before the append encoder.
// They are kept as test-only references: tests decode responses into them,
// and FuzzResultEncode checks the encoder byte for byte against
// json.Marshal of resultJSON.

// timingJSON reports per-phase latency in microseconds.
type timingJSON struct {
	ValidityUs int64 `json:"validityUs"`
	DeduceUs   int64 `json:"deduceUs"`
	SuggestUs  int64 `json:"suggestUs"`
	TotalUs    int64 `json:"totalUs"`
}

// resultJSON is one resolution outcome on the wire; in batch streams each
// line also carries the input's id and zero-based line index.
type resultJSON struct {
	ID    string `json:"id,omitempty"`
	Index *int   `json:"index,omitempty"`
	// Rows is the input-row count grouped into this entity (dataset
	// streams only).
	Rows     int            `json:"rows,omitempty"`
	Valid    bool           `json:"valid"`
	Resolved map[string]any `json:"resolved,omitempty"`
	Tuple    []any          `json:"tuple,omitempty"`
	Rounds   int            `json:"rounds,omitempty"`
	Timing   *timingJSON    `json:"timing,omitempty"`
	Cached   bool           `json:"cached,omitempty"`
	Error    *errorJSON     `json:"error,omitempty"`
}

// sessionStateJSON is a session state body as tests read it.
type sessionStateJSON struct {
	Session      string          `json:"session"`
	EntityID     string          `json:"entityId,omitempty"`
	Valid        bool            `json:"valid"`
	Complete     bool            `json:"complete"`
	Resolved     map[string]any  `json:"resolved,omitempty"`
	Tuple        []any           `json:"tuple,omitempty"`
	Suggestion   *suggestionJSON `json:"suggestion,omitempty"`
	Rounds       int             `json:"rounds"`
	Interactions int             `json:"interactions"`
}

// entityStateJSON is a live entity state body as tests read it.
type entityStateJSON struct {
	Key      string         `json:"key"`
	Rows     int            `json:"rows"`
	Valid    bool           `json:"valid"`
	Complete bool           `json:"complete"`
	Resolved map[string]any `json:"resolved,omitempty"`
	Tuple    []any          `json:"tuple,omitempty"`
	Extends  int            `json:"extends"`
	Rebuilds int            `json:"rebuilds"`
	Extended *bool          `json:"extended,omitempty"`
	Created  bool           `json:"created,omitempty"`
	Cached   bool           `json:"cached,omitempty"`
}

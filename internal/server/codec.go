// Package server implements the crserve HTTP resolution service: single and
// streaming-batch conflict resolution over compiled rule sets, stateful
// interactive resolution sessions (the paper's Se ⊕ Ot loop as addressable
// server state), an LRU result cache, and text-format metrics.
//
// Endpoints:
//
//	POST /v1/resolve         one entity, JSON in / JSON out
//	POST /v1/resolve/batch   NDJSON: header line, then one entity per line
//	                         in, one result per line out (constant memory)
//	POST /v1/resolve/dataset NDJSON: header line with rules + key columns,
//	                         then one row per line; rows are grouped into
//	                         entities by key and resolved over the pool —
//	                         one result line per entity plus a summary line
//	POST /v1/validate        validity check only
//	POST /v1/session             start an interactive session: rules +
//	                             entity in; id, validity, deduced values
//	                             and first suggestion out
//	GET  /v1/session/{id}        current session state
//	POST /v1/session/{id}/answer fold user answers in (Se ⊕ Ot), re-deduce
//	                             incrementally, return the next suggestion
//	DELETE /v1/session/{id}      drop the session
//	POST /v1/entity/{key}/rows   change-data-capture feed: fold new rows
//	                             (and optional currency edges) into the
//	                             entity's persistent resolution state —
//	                             incrementally when the delta is monotone,
//	                             by automatic re-encode otherwise — and
//	                             return the state over all rows seen
//	GET  /v1/entity/{key}        the entity's current resolution state
//	DELETE /v1/entity/{key}      drop the entity
//	GET  /healthz            liveness probe
//	GET  /readyz             readiness probe: 503 while draining (after
//	                         Close) or if the session janitor died; body
//	                         reports rule-cache warmth and live sessions
//	GET  /metrics            Prometheus-style counters
//
// Every stateless entity — a /v1/resolve body, a batch line, a grouped
// dataset instance — runs through one path, resolveEntity: the result
// cache, which holds the engine's *conflictres.Result per problem, the
// per-entity deadline, the pooled solver and the cache fill. Results,
// dataset lines and session and live-entity states render their values
// through one encoder, encodeResolved.
//
// Sessions and live entities are held in two instances of the keyed
// live.Registry, with LRU eviction under Config.SessionCap / LiveCap and
// TTL expiry under Config.SessionTTL / LiveTTL; a dropped, expired or
// evicted id answers 404 and the client re-creates the session.
package server

import (
	"encoding/json"
	"fmt"

	"conflictres"
	"conflictres/internal/relation"
)

// ruleSetJSON names a schema and its constraint texts; it heads both the
// single-resolve request body and the batch NDJSON stream.
type ruleSetJSON struct {
	Schema   []string `json:"schema"`
	Currency []string `json:"currency,omitempty"`
	CFDs     []string `json:"cfds,omitempty"`
	// Trust holds trust-mapping statements ranking data sources (the rules
	// file's trust: section, e.g. `"hq" > "mirror"`).
	Trust []string `json:"trust,omitempty"`
}

// entityJSON is one entity instance on the wire. Tuples hold raw JSON values
// per attribute: null, strings, and numbers (integral numbers decode as ints).
type entityJSON struct {
	ID     string              `json:"id,omitempty"`
	Tuples [][]json.RawMessage `json:"tuples"`
	// Sources, when present, parallels Tuples: the provenance tag of each
	// tuple, scored by the rule set's trust mapping. Empty strings leave a
	// tuple untagged.
	Sources []string    `json:"sources,omitempty"`
	Orders  []orderJSON `json:"orders,omitempty"`
}

// orderJSON is an explicit currency edge: tuple t1 ≼_attr tuple t2.
type orderJSON struct {
	Attr string `json:"attr"`
	T1   int    `json:"t1"`
	T2   int    `json:"t2"`
}

// resolveRequest is the body of POST /v1/resolve and /v1/validate.
type resolveRequest struct {
	ruleSetJSON
	Entity    entityJSON `json:"entity"`
	MaxRounds int        `json:"maxRounds,omitempty"`
	// Mode selects the resolution strategy ("sat" when absent); unknown
	// names answer 400 with code "unknown_mode".
	Mode string `json:"mode,omitempty"`
}

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

// errorJSON is the structured error envelope every non-2xx response carries.
type errorJSON struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// wireCell is one raw JSON cell of a batch entity line. Unlike
// json.RawMessage it keeps no copy of its own: json.Unmarshal hands
// UnmarshalJSON a subslice of the input it was given, and batch lines are
// decoded from an owned copy that lives as long as the entity, so every
// cell aliases that one copy.
type wireCell []byte

func (c *wireCell) UnmarshalJSON(b []byte) error {
	*c = b
	return nil
}

// batchEntityJSON is entityJSON as a batch line decodes: the same fields,
// with cells aliasing the line.
type batchEntityJSON struct {
	ID      string       `json:"id,omitempty"`
	Tuples  [][]wireCell `json:"tuples"`
	Sources []string     `json:"sources,omitempty"`
	Orders  []orderJSON  `json:"orders,omitempty"`
}

// decodeBatchEntity decodes one batch entity line, which it takes
// ownership of: the entity's cells alias it. A line that does not decode
// is decoded again as entityJSON, so its error reads exactly as it always
// has (the message names the Go types the decoder met).
func decodeBatchEntity(line []byte) (*batchEntityJSON, error) {
	e := new(batchEntityJSON)
	err := json.Unmarshal(line, e)
	if err == nil {
		return e, nil
	}
	if refErr := json.Unmarshal(line, new(entityJSON)); refErr != nil {
		err = refErr
	}
	return nil, err
}

// bindEntity turns a wire entity's tuples, source tags and explicit
// currency orders into a specification bound to the compiled rule set.
// Cells decode through relation.FromJSONScalar, the shared scalar codec of
// every wire surface (integral numbers become ints; booleans and nested
// structures are rejected).
func bindEntity[C ~[]byte](rules *conflictres.RuleSet, tuples [][]C, sources []string, orders []orderJSON) (*conflictres.Spec, error) {
	if len(tuples) == 0 {
		return nil, fmt.Errorf("entity has no tuples")
	}
	if len(sources) > 0 && len(sources) != len(tuples) {
		return nil, fmt.Errorf("entity has %d sources for %d tuples", len(sources), len(tuples))
	}
	sch := rules.Schema()
	in := conflictres.NewInstance(sch)
	// Instance.AddSourced copies the tuple, so one scratch row serves all.
	t := make(conflictres.Tuple, sch.Len())
	for ti, row := range tuples {
		if len(row) != sch.Len() {
			return nil, fmt.Errorf("tuple %d has %d values, schema has %d", ti, len(row), sch.Len())
		}
		for ai, raw := range row {
			v, err := relation.FromJSONScalar(raw)
			if err != nil {
				return nil, fmt.Errorf("tuple %d, attribute %s: %w", ti, sch.Name(conflictres.Attr(ai)), err)
			}
			t[ai] = v
		}
		src := ""
		if len(sources) > 0 {
			src = sources[ti]
		}
		if _, err := in.AddSourced(t, src); err != nil {
			return nil, err
		}
	}
	spec, err := conflictres.NewSpecFromRules(in, rules)
	if err != nil {
		return nil, err
	}
	for _, o := range orders {
		if err := spec.AddOrder(o.Attr, conflictres.TupleID(o.T1), conflictres.TupleID(o.T2)); err != nil {
			return nil, err
		}
	}
	return spec, nil
}

// encodeResult renders a resolution outcome on the wire. A cached outcome
// took no solver time here, so it carries cached instead of timing.
func encodeResult(sch *conflictres.Schema, res *conflictres.Result, cached bool) *resultJSON {
	out := &resultJSON{Valid: res.Valid, Rounds: res.Rounds, Cached: cached}
	if !res.Valid {
		return out
	}
	out.Resolved, out.Tuple = encodeResolved(sch, res.Resolved, res.Tuple)
	if !cached {
		out.Timing = &timingJSON{
			ValidityUs: res.Timing.Validity.Microseconds(),
			DeduceUs:   res.Timing.Deduce.Microseconds(),
			SuggestUs:  res.Timing.Suggest.Microseconds(),
			TotalUs:    res.Timing.Total().Microseconds(),
		}
	}
	return out
}

// encodeResolved renders resolved values, keyed by attribute name, and the
// current tuple: the one value encoder of every result and state on the
// wire.
func encodeResolved(sch *conflictres.Schema, resolved map[conflictres.Attr]conflictres.Value, tuple conflictres.Tuple) (map[string]any, []any) {
	names := make(map[string]any, len(resolved))
	for a, v := range resolved {
		names[sch.Name(a)] = v.AsJSON()
	}
	values := make([]any, len(tuple))
	for i, v := range tuple {
		values[i] = v.AsJSON()
	}
	return names, values
}

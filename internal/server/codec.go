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

// decodeValue converts one raw JSON cell into a relation value (integral
// numbers become ints; booleans and nested structures are rejected). It is
// the shared scalar codec of every wire surface — see relation.FromJSONScalar.
func decodeValue(raw json.RawMessage) (conflictres.Value, error) {
	return relation.FromJSONScalar(raw)
}

// encodeValue converts a relation value into its JSON form.
func encodeValue(v conflictres.Value) any { return v.AsJSON() }

// bindEntity turns a wire entity into a specification bound to the compiled
// rule set, applying explicit currency orders.
func bindEntity(rules *conflictres.RuleSet, e *entityJSON) (*conflictres.Spec, error) {
	if len(e.Tuples) == 0 {
		return nil, fmt.Errorf("entity has no tuples")
	}
	if len(e.Sources) > 0 && len(e.Sources) != len(e.Tuples) {
		return nil, fmt.Errorf("entity has %d sources for %d tuples", len(e.Sources), len(e.Tuples))
	}
	sch := rules.Schema()
	in := conflictres.NewInstance(sch)
	for ti, row := range e.Tuples {
		if len(row) != sch.Len() {
			return nil, fmt.Errorf("tuple %d has %d values, schema has %d", ti, len(row), sch.Len())
		}
		t := make(conflictres.Tuple, len(row))
		for ai, raw := range row {
			v, err := decodeValue(raw)
			if err != nil {
				return nil, fmt.Errorf("tuple %d, attribute %s: %w", ti, sch.Name(conflictres.Attr(ai)), err)
			}
			t[ai] = v
		}
		src := ""
		if len(e.Sources) > 0 {
			src = e.Sources[ti]
		}
		if _, err := in.AddSourced(t, src); err != nil {
			return nil, err
		}
	}
	spec, err := conflictres.NewSpecFromRules(in, rules)
	if err != nil {
		return nil, err
	}
	for _, o := range e.Orders {
		if err := spec.AddOrder(o.Attr, conflictres.TupleID(o.T1), conflictres.TupleID(o.T2)); err != nil {
			return nil, err
		}
	}
	return spec, nil
}

// encodeResult converts a resolution outcome into its wire form.
func encodeResult(sch *conflictres.Schema, res *conflictres.Result) *resultJSON {
	out := &resultJSON{Valid: res.Valid, Rounds: res.Rounds}
	if !res.Valid {
		return out
	}
	out.Resolved = make(map[string]any, len(res.Resolved))
	for a, v := range res.Resolved {
		out.Resolved[sch.Name(a)] = encodeValue(v)
	}
	out.Tuple = make([]any, len(res.Tuple))
	for i, v := range res.Tuple {
		out.Tuple[i] = encodeValue(v)
	}
	out.Timing = &timingJSON{
		ValidityUs: res.Timing.Validity.Microseconds(),
		DeduceUs:   res.Timing.Deduce.Microseconds(),
		SuggestUs:  res.Timing.Suggest.Microseconds(),
		TotalUs:    res.Timing.Total().Microseconds(),
	}
	return out
}

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
// per-entity deadline, the pooled solver and the cache fill.
//
// The NDJSON streams carry no reflection per entity. Batch lines are read
// by wire.ScanEntity (crshard routes them with the same scanner's ScanID),
// with cells aliasing the line; a line the scanner does not take is
// decoded by json.Unmarshal, so the entity and the error text are the same
// either way. Results, dataset lines and session and live-entity states
// render through one append encoder, resultEncoder, whose bytes equal
// encoding/json's. A stream header line is kept compiled in the rule
// cache under the hash of its exact bytes, so a line seen before is
// neither decoded nor compiled again.
//
// Sessions and live entities are held in two instances of the keyed
// live.Registry, with LRU eviction under Config.SessionCap / LiveCap and
// TTL expiry under Config.SessionTTL / LiveTTL; a dropped, expired or
// evicted id answers 404 and the client re-creates the session.
package server

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"conflictres"
	"conflictres/internal/relation"
	"conflictres/internal/wire"
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
type orderJSON = wire.Order

// resolveRequest is the body of POST /v1/resolve and /v1/validate.
type resolveRequest struct {
	ruleSetJSON
	Entity    entityJSON `json:"entity"`
	MaxRounds int        `json:"maxRounds,omitempty"`
	// Mode selects the resolution strategy ("sat" when absent); unknown
	// names answer 400 with code "unknown_mode".
	Mode string `json:"mode,omitempty"`
}

// errorJSON is the structured error envelope every non-2xx response carries.
type errorJSON struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// decodeBatchEntity decodes one batch entity line, which it takes
// ownership of: the entity's cells alias it. wire.ScanEntity reads the
// lines it can; any other line is decoded by json.Unmarshal, and one that
// does not decode is decoded again as entityJSON, so its error reads
// exactly as it always has (the message names the Go types the decoder
// met).
func decodeBatchEntity(line []byte) (*wire.Entity, error) {
	e := new(wire.Entity)
	if wire.ScanEntity(line, e) {
		return e, nil
	}
	*e = wire.Entity{}
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

// resultLine is one resolution outcome on the wire, in the order its
// fields are written; in streams it also carries the input's id and
// zero-based line index (batch) or grouped row count (dataset).
type resultLine struct {
	id    string
	index int // < 0: no index field
	rows  int
	valid bool
	// resolved and tuple are written only for a valid outcome.
	resolved map[conflictres.Attr]conflictres.Value
	tuple    conflictres.Tuple
	rounds   int
	timing   *conflictres.Timing // nil: no timing field
	cached   bool
	err      *errorJSON
}

// outcomeLine is res as a result line. A cached outcome took no solver
// time here, so it carries cached instead of timing.
func outcomeLine(res *conflictres.Result, cached bool) resultLine {
	out := resultLine{index: -1, valid: res.Valid, rounds: res.Rounds, cached: cached}
	if res.Valid {
		out.resolved, out.tuple = res.Resolved, res.Tuple
		if !cached {
			out.timing = &res.Timing
		}
	}
	return out
}

// resultEncoder is the one encoder of every result, dataset line and
// session and live-entity state on the wire. It appends straight into a
// byte buffer, and its bytes are those encoding/json writes for the same
// values: fields in declaration order with empty ones left out, resolved
// attributes in name order, strings escaped alike and floats formatted
// alike.
type resultEncoder struct {
	sch *conflictres.Schema
	// byName lists the schema's attributes sorted by name, the order
	// encoding/json writes map keys in.
	byName []conflictres.Attr
}

func newResultEncoder(sch *conflictres.Schema) *resultEncoder {
	byName := make([]conflictres.Attr, sch.Len())
	for i := range byName {
		byName[i] = conflictres.Attr(i)
	}
	slices.SortFunc(byName, func(a, b conflictres.Attr) int {
		return cmp.Compare(sch.Name(a), sch.Name(b))
	})
	return &resultEncoder{sch: sch, byName: byName}
}

// appendLine appends r as one JSON object. It reports false, with b as it
// was, where encoding/json would fail: on a NaN or infinite float.
func (e *resultEncoder) appendLine(b []byte, r *resultLine) ([]byte, bool) {
	start := len(b)
	b = append(b, '{')
	if r.id != "" {
		b = wire.AppendString(append(b, `"id":`...), r.id)
		b = append(b, ',')
	}
	if r.index >= 0 {
		b = strconv.AppendInt(append(b, `"index":`...), int64(r.index), 10)
		b = append(b, ',')
	}
	if r.rows != 0 {
		b = strconv.AppendInt(append(b, `"rows":`...), int64(r.rows), 10)
		b = append(b, ',')
	}
	b = strconv.AppendBool(append(b, `"valid":`...), r.valid)
	ok := true
	if len(r.resolved) > 0 {
		b, ok = e.appendResolved(append(b, `,"resolved":`...), r.resolved)
	}
	if len(r.tuple) > 0 && ok {
		b, ok = e.appendTuple(append(b, `,"tuple":`...), r.tuple)
	}
	if !ok {
		return b[:start], false
	}
	if r.rounds != 0 {
		b = strconv.AppendInt(append(b, `,"rounds":`...), int64(r.rounds), 10)
	}
	if t := r.timing; t != nil {
		b = strconv.AppendInt(append(b, `,"timing":{"validityUs":`...), t.Validity.Microseconds(), 10)
		b = strconv.AppendInt(append(b, `,"deduceUs":`...), t.Deduce.Microseconds(), 10)
		b = strconv.AppendInt(append(b, `,"suggestUs":`...), t.Suggest.Microseconds(), 10)
		b = strconv.AppendInt(append(b, `,"totalUs":`...), t.Total().Microseconds(), 10)
		b = append(b, '}')
	}
	if r.cached {
		b = append(b, `,"cached":true`...)
	}
	if r.err != nil {
		b = wire.AppendString(append(b, `,"error":{"code":`...), r.err.Code)
		b = wire.AppendString(append(b, `,"message":`...), r.err.Message)
		b = append(b, '}')
	}
	return append(b, '}'), true
}

// appendResolved appends resolved values as an object keyed by attribute
// name.
func (e *resultEncoder) appendResolved(b []byte, resolved map[conflictres.Attr]conflictres.Value) ([]byte, bool) {
	b = append(b, '{')
	first, ok := true, true
	for _, a := range e.byName {
		v, has := resolved[a]
		if !has {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = wire.AppendString(b, e.sch.Name(a))
		if b, ok = appendValue(append(b, ':'), v); !ok {
			return b, false
		}
	}
	return append(b, '}'), true
}

// appendTuple appends a tuple's values as an array.
func (e *resultEncoder) appendTuple(b []byte, tuple conflictres.Tuple) ([]byte, bool) {
	b = append(b, '[')
	ok := true
	for i, v := range tuple {
		if i > 0 {
			b = append(b, ',')
		}
		if b, ok = appendValue(b, v); !ok {
			return b, false
		}
	}
	return append(b, ']'), true
}

// appendValue appends one value in its JSON form, Value.AsJSON's.
func appendValue(b []byte, v conflictres.Value) ([]byte, bool) {
	switch v.Kind() {
	case relation.KindString:
		return wire.AppendString(b, v.Str()), true
	case relation.KindInt:
		return strconv.AppendInt(b, v.Int64(), 10), true
	case relation.KindFloat:
		return wire.AppendFloat(b, v.Float64())
	default:
		return append(b, "null"...), true
	}
}

// encodeResolved renders a state's resolved values and current tuple for
// the session and live-entity bodies, through the result encoder. A value
// encoding/json refuses renders as invalid JSON, so marshalling the body
// fails as it did when the values were marshalled themselves.
func encodeResolved(sch *conflictres.Schema, resolved map[conflictres.Attr]conflictres.Value, tuple conflictres.Tuple) (json.RawMessage, json.RawMessage) {
	e := newResultEncoder(sch)
	var names, values []byte
	ok := true
	if len(resolved) > 0 {
		names, ok = e.appendResolved(nil, resolved)
	}
	if len(tuple) > 0 && ok {
		values, ok = e.appendTuple(nil, tuple)
	}
	if !ok {
		return json.RawMessage("NaN"), nil
	}
	return names, values
}

// lineBufs recycles the buffers result lines are encoded into, one per
// entity in flight.
var lineBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"conflictres"
	"conflictres/internal/live"
	"conflictres/internal/relation"
)

// Live-entity error codes (see the errorJSON envelope).
const (
	// codeEntityNotFound answers requests for keys that were never fed,
	// expired past the TTL, or were evicted under the capacity cap.
	codeEntityNotFound = "entity_not_found"
	// codeEntityBusy answers a request that raced another in-flight
	// operation on the same entity; upserts never queue silently.
	codeEntityBusy = "entity_busy"
	// codeEntityRules answers an upsert whose rule set differs from the one
	// the entity was created under; delete the entity to change rules.
	codeEntityRules = "entity_rules_changed"
	// codeEntityFault answers an upsert rejected by an injected storage
	// fault before any state changed (chaos runs only): the delta was not
	// applied, so 503 tells clients to retry rather than treat the rows as
	// acknowledged.
	codeEntityFault = "entity_fault"
)

// entityUpsertRequest is the body of POST /v1/entity/{key}/rows: the rule
// set the rows bind to, the new rows (same cell forms as entity tuples),
// and optional currency edges whose indices address the entity's
// accumulated row log (they may reference rows in this request).
type entityUpsertRequest struct {
	ruleSetJSON
	Rows [][]json.RawMessage `json:"rows"`
	// Sources, when present, parallels Rows: the provenance tag of each row,
	// scored by the rule set's trust mapping.
	Sources []string    `json:"sources,omitempty"`
	Orders  []orderJSON `json:"orders,omitempty"`
	// Mode selects the resolution strategy. It is sticky per entity like the
	// rule set: an upsert whose mode differs from the entity's answers 409
	// entity_rules_changed; delete the entity to change it.
	Mode string `json:"mode,omitempty"`
}

// entityStateJSON is the live entity's resolution state over every row it
// has seen, returned by upserts and gets.
type entityStateJSON struct {
	Key      string         `json:"key"`
	Rows     int            `json:"rows"`
	Valid    bool           `json:"valid"`
	Complete bool           `json:"complete"`
	Resolved map[string]any `json:"resolved,omitempty"`
	Tuple    []any          `json:"tuple,omitempty"`
	// Extends / Rebuilds count this entity's incremental vs re-encoded
	// upsert deltas (the initial build is neither).
	Extends  int `json:"extends"`
	Rebuilds int `json:"rebuilds"`
	// Extended reports whether this request's delta was incremental; only
	// present on upsert responses for existing entities.
	Extended *bool `json:"extended,omitempty"`
	// Created reports that this upsert opened the entity.
	Created bool `json:"created,omitempty"`
	Cached  bool `json:"cached,omitempty"`
}

// encodeEntityState converts a copied-out live state into its wire form.
func encodeEntityState(key string, sch *conflictres.Schema, st conflictres.LiveState) *entityStateJSON {
	out := &entityStateJSON{
		Key:      key,
		Rows:     st.Rows,
		Valid:    st.Valid,
		Extends:  st.Extends,
		Rebuilds: st.Rebuilds,
	}
	if !st.Valid {
		return out
	}
	out.Resolved, out.Tuple = encodeResolved(sch, st.Resolved, st.Tuple)
	out.Complete = st.Complete()
	return out
}

// decodeRows converts wire rows into bound tuples against the rule set's
// schema (same scalar codec as entity tuples).
func decodeRows(rules *conflictres.RuleSet, rows [][]json.RawMessage) ([]conflictres.Tuple, error) {
	sch := rules.Schema()
	out := make([]conflictres.Tuple, 0, len(rows))
	for ti, row := range rows {
		if len(row) != sch.Len() {
			return nil, fmt.Errorf("row %d has %d values, schema has %d", ti, len(row), sch.Len())
		}
		t := make(conflictres.Tuple, len(row))
		for ai, raw := range row {
			v, err := relation.FromJSONScalar(raw)
			if err != nil {
				return nil, fmt.Errorf("row %d, attribute %s: %w", ti, sch.Name(conflictres.Attr(ai)), err)
			}
			t[ai] = v
		}
		out = append(out, t)
	}
	return out, nil
}

// liveOrders converts wire currency edges into registry orders.
func liveOrders(in []orderJSON) []conflictres.LiveOrder {
	out := make([]conflictres.LiveOrder, 0, len(in))
	for _, o := range in {
		out = append(out, conflictres.LiveOrder{Attr: o.Attr, T1: o.T1, T2: o.T2})
	}
	return out
}

// rulesHash is a registry entity's identity hash. It covers the rules AND
// the canonical mode name, so a mode flip on an existing entity surfaces
// as entity_rules_changed rather than silently resolving under the
// creation-time strategy.
func rulesHash(rk cacheKey, mode conflictres.ResolutionMode) string {
	return string(rk[:]) + "\x00" + mode.Strategy.String()
}

// liveErrStatus maps registry errors onto HTTP status + error code.
func liveErrStatus(err error) (int, string) {
	switch {
	case errors.Is(err, live.ErrBusy):
		return http.StatusConflict, codeEntityBusy
	case errors.Is(err, live.ErrRulesChanged):
		return http.StatusConflict, codeEntityRules
	case errors.Is(err, live.ErrShutdown):
		return http.StatusServiceUnavailable, codeResolveFail
	case errors.Is(err, live.ErrFaulted):
		return http.StatusServiceUnavailable, codeEntityFault
	default:
		return http.StatusBadRequest, codeBadEntity
	}
}

// handleEntityUpsert is POST /v1/entity/{key}/rows: the change-data-capture
// feed. New rows (and optional currency edges) fold into the entity's
// persistent resolution state — incrementally when the delta is monotone,
// by automatic re-encode otherwise — and the state over all rows seen so
// far comes back. The entity's cached state in the result LRU is
// invalidated and replaced by the fresh snapshot.
func (s *Server) handleEntityUpsert(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	var req entityUpsertRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	rules, rk, mode, ok := s.compileRequest(w, &req.ruleSetJSON, req.Mode)
	if !ok {
		return
	}
	rows, err := decodeRows(rules, req.Rows)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadEntity, err.Error())
		return
	}
	if len(req.Sources) > 0 && len(req.Sources) != len(rows) {
		s.writeError(w, http.StatusBadRequest, codeBadEntity,
			fmt.Sprintf("%d sources for %d rows", len(req.Sources), len(rows)))
		return
	}
	// Re-marshal the decoded rule set rather than retaining request bytes:
	// the snapshot then carries a canonical blob regardless of how the
	// client formatted the original.
	rulesWire, err := json.Marshal(&req.ruleSetJSON)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRules, err.Error())
		return
	}
	o, err := runTimed(r.Context(), s.cfg.Timeout, nil, func() registryOutcome {
		res, err := s.liveReg.Upsert(key, rules, rulesHash(rk, mode), live.Op{
			Rows: rows, Sources: req.Sources, Orders: liveOrders(req.Orders), Mode: mode, RulesWire: rulesWire,
		})
		return registryOutcome{res, err}
	})
	if err != nil {
		s.writeError(w, http.StatusGatewayTimeout, codeTimeout, err.Error())
		return
	}
	s.met.observeStats(o.res.Stats)
	if o.err != nil {
		status, code := liveErrStatus(o.err)
		s.writeError(w, status, code, o.err.Error())
		return
	}
	if o.res.Created {
		s.met.observeMode(mode.Strategy)
	}
	out := encodeEntityState(key, rules.Schema(), o.res.State)
	out.Created = o.res.Created
	if !o.res.Created {
		extended := o.res.Extended
		out.Extended = &extended
	}
	// Invalidate-then-refresh the entity's snapshot in the result LRU so
	// reads served from cache can never observe pre-upsert state.
	ck := liveEntityKey(key)
	s.results.remove(ck)
	s.results.put(ck, out)
	writeJSON(w, out)
}

// handleEntityGet is GET /v1/entity/{key}: the entity's current resolution
// state. Warm states are served from the result LRU without touching the
// entity (an in-flight upsert does not block reads of the last snapshot).
func (s *Server) handleEntityGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if v, ok := s.results.get(liveEntityKey(key)); ok {
		cached := *(v.(*entityStateJSON)) // shallow copy to stamp Cached
		cached.Cached = true
		cached.Extended = nil
		cached.Created = false
		writeJSON(w, &cached)
		return
	}
	res, ok, err := s.liveReg.Get(key)
	if err != nil {
		status, code := liveErrStatus(err)
		s.writeError(w, status, code, err.Error())
		return
	}
	if !ok {
		s.writeError(w, http.StatusNotFound, codeEntityNotFound,
			fmt.Sprintf("no live entity %q: never fed, expired, or evicted", key))
		return
	}
	out := encodeEntityState(key, res.Schema, res.State)
	s.results.put(liveEntityKey(key), out)
	writeJSON(w, out)
}

// handleEntityDelete is DELETE /v1/entity/{key}: drop the entity and its
// cached state, returning its pooled pipeline.
func (s *Server) handleEntityDelete(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	s.results.remove(liveEntityKey(key))
	if !s.liveReg.Remove(key) {
		s.writeError(w, http.StatusNotFound, codeEntityNotFound,
			fmt.Sprintf("no live entity %q: never fed, expired, or evicted", key))
		return
	}
	writeJSON(w, map[string]any{"key": key, "deleted": true})
}

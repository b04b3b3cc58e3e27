package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"conflictres"
	"conflictres/internal/live"
	"conflictres/internal/relation"
)

// Session-specific error codes (see the errorJSON envelope).
const (
	// codeSessionNotFound answers requests for ids that never existed,
	// expired past the TTL, or were evicted under the capacity cap — the
	// three are indistinguishable on purpose (ids are opaque).
	codeSessionNotFound = "session_not_found"
	// codeSessionBusy answers an answer request that raced another in-flight
	// request (an apply, or a state snapshot) on the same session: the loser
	// gets 409 instead of silently queueing.
	codeSessionBusy = "session_busy"
	// codeContradiction answers an apply whose Ot contradicts the
	// specification; the session rolled back to its last consistent state.
	codeContradiction = "contradiction"
)

// sessionCreateRequest is the body of POST /v1/session: the same rule set +
// entity shape as /v1/resolve. The whole interactive loop then runs against
// the stored session without ever re-sending the entity.
type sessionCreateRequest struct {
	ruleSetJSON
	Entity entityJSON `json:"entity"`
	// Mode selects the resolution strategy, sticky for the session's whole
	// lifetime (like the rule set); unknown names answer 400 "unknown_mode".
	Mode string `json:"mode,omitempty"`
}

// sessionAnswerRequest is the body of POST /v1/session/{id}/answer: the
// user-validated true values Ot, keyed by attribute name. Values use the
// same scalar JSON forms as entity tuples (null, string, number).
type sessionAnswerRequest struct {
	Answers map[string]json.RawMessage `json:"answers"`
}

// suggestionJSON is one Fig. 7 suggestion on the wire: the attributes the
// user should confirm next, their candidate values, and the attributes that
// become derivable once they are confirmed.
type suggestionJSON struct {
	Attrs      []string         `json:"attrs"`
	Candidates map[string][]any `json:"candidates,omitempty"`
	Derivable  []string         `json:"derivable,omitempty"`
}

// sessionState is the session's current state, returned by every
// session endpoint: create, get, and answer.
type sessionState struct {
	Session  string `json:"session"`
	EntityID string `json:"entityId,omitempty"`
	Valid    bool   `json:"valid"`
	// Complete reports whether every attribute has a determined true value;
	// when false, Suggestion carries the next Fig. 7 request for input.
	Complete     bool            `json:"complete"`
	Resolved     json.RawMessage `json:"resolved,omitempty"`
	Tuple        json.RawMessage `json:"tuple,omitempty"`
	Suggestion   *suggestionJSON `json:"suggestion,omitempty"`
	Rounds       int             `json:"rounds"`
	Interactions int             `json:"interactions"`
}

func encodeSuggestion(sch *conflictres.Schema, sug conflictres.Suggestion) *suggestionJSON {
	out := &suggestionJSON{}
	for _, a := range sug.Attrs {
		out.Attrs = append(out.Attrs, sch.Name(a))
	}
	if len(sug.Candidates) > 0 {
		out.Candidates = make(map[string][]any, len(sug.Candidates))
		for a, vals := range sug.Candidates {
			enc := make([]any, len(vals))
			for i, v := range vals {
				enc[i] = v.AsJSON()
			}
			out.Candidates[sch.Name(a)] = enc
		}
	}
	for _, a := range sug.Derivable {
		out.Derivable = append(out.Derivable, sch.Name(a))
	}
	return out
}

// encodeSessionState renders an answers entity's registry state on the wire.
func encodeSessionState(id string, res live.Result) *sessionState {
	st := res.State
	out := &sessionState{
		Session:      id,
		EntityID:     res.EntityID,
		Valid:        st.Valid,
		Rounds:       st.Interactions + 1,
		Interactions: st.Interactions,
	}
	if !st.Valid {
		return out
	}
	out.Resolved, out.Tuple = encodeResolved(res.Schema, st.Resolved, st.Tuple)
	out.Complete = st.Complete()
	if res.Suggestion != nil {
		out.Suggestion = encodeSuggestion(res.Schema, *res.Suggestion)
	}
	return out
}

// newSessionID returns an opaque, unguessable session id.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; there is no sane
		// fallback that keeps ids unguessable.
		panic("server: crypto/rand: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// decodeAnswers converts one wire answer round into values, checking every
// attribute against the session's schema.
func decodeAnswers(sch *conflictres.Schema, raw map[string]json.RawMessage) (map[string]conflictres.Value, error) {
	answers := make(map[string]conflictres.Value, len(raw))
	for name, v := range raw {
		if _, ok := sch.Attr(name); !ok {
			return nil, fmt.Errorf("unknown attribute %q", name)
		}
		val, err := relation.FromJSONScalar(v)
		if err != nil {
			return nil, fmt.Errorf("attribute %s: %v", name, err)
		}
		answers[name] = val
	}
	return answers, nil
}

// writeSessionError answers a failed session registry operation. Registry
// conditions map to their codes; anything else is the facade rejecting the
// delta, answered with status and code — for an answer round that is a
// contradiction (the session rolled back and logged nothing).
func (s *Server) writeSessionError(w http.ResponseWriter, id string, err error, status int, code string) {
	switch {
	case errors.Is(err, live.ErrNotFound):
		s.writeSessionNotFound(w, id)
		return
	case errors.Is(err, live.ErrBusy):
		s.writeError(w, http.StatusConflict, codeSessionBusy,
			"another request is in progress on this session; retry when it completes")
		return
	case errors.Is(err, live.ErrShutdown), errors.Is(err, live.ErrFaulted):
		status, code = liveErrStatus(err)
	}
	s.writeError(w, status, code, err.Error())
}

// writeSessionNotFound answers an id the session registry does not hold.
func (s *Server) writeSessionNotFound(w http.ResponseWriter, id string) {
	s.writeError(w, http.StatusNotFound, codeSessionNotFound,
		fmt.Sprintf("no live session %q: unknown id, expired, or evicted", id))
}

// registryOutcome is one registry operation run under the deadline.
type registryOutcome struct {
	res live.Result
	err error
}

// handleSessionCreate is POST /v1/session: compile the rules, bind the
// entity, and seed an answers entity in the session registry under a fresh
// id; return the id with the initial state — validity, the values deduced
// automatically, and the first suggestion. This is the one request in the
// loop that pays an encode.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req sessionCreateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	rules, _, mode, ok := s.compileRequest(w, &req.ruleSetJSON, req.Mode)
	if !ok {
		return
	}
	spec, err := bindEntity(rules, req.Entity.Tuples, req.Entity.Sources, req.Entity.Orders)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadEntity, err.Error())
		return
	}
	rulesWire, err := json.Marshal(&req.ruleSetJSON)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRules, err.Error())
		return
	}
	s.met.observeMode(mode.Strategy)
	id := newSessionID()
	op := live.Op{Kind: live.Answers, Seed: spec, EntityID: req.Entity.ID, Mode: mode, RulesWire: rulesWire}
	// The solver work (validity root-solve, deduction, first suggestion)
	// runs under the per-entity deadline. A timed-out build runs on, so it
	// is discarded once it lands: its id was never revealed.
	landed := make(chan struct{})
	out, err := runTimed(r.Context(), s.cfg.Timeout, func() { close(landed) }, func() registryOutcome {
		// No rules hash: a session is seeded once per id, so its rules are
		// never compared against a later upsert's.
		res, err := s.sessions.Upsert(id, rules, "", op)
		return registryOutcome{res, err}
	})
	if err != nil {
		go func() {
			<-landed
			s.sessions.Discard(id)
		}()
		s.writeError(w, http.StatusGatewayTimeout, codeTimeout, err.Error())
		return
	}
	s.met.observeStats(out.res.Stats)
	if out.err != nil {
		s.writeSessionError(w, id, out.err, http.StatusInternalServerError, codeResolveFail)
		return
	}
	writeJSON(w, encodeSessionState(id, out.res))
}

// handleSessionGet is GET /v1/session/{id}: the state the last accepted
// round left, waiting out a round in flight. Nothing is recomputed.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, ok, err := s.sessions.Get(id)
	switch {
	case err != nil:
		s.writeSessionError(w, id, err, http.StatusInternalServerError, codeResolveFail)
	case !ok:
		s.writeSessionNotFound(w, id)
	default:
		writeJSON(w, encodeSessionState(id, res))
	}
}

// handleSessionAnswer is POST /v1/session/{id}/answer: fold the user's
// validated values into the session (Se ⊕ Ot) as one answers delta,
// re-deduce incrementally on the live solver, and return the new state with
// the next suggestion. A request racing another in-flight request on the
// same session answers 409; input that contradicts the specification
// answers 422 and leaves the session at its last consistent state (the
// framework's "revise" branch), with nothing logged.
//
// Timeout semantics: the solver is not preemptible, so a 504 abandons the
// response but NOT the apply — it keeps running and may still commit, with
// the entry lock held until it finishes. The recovery protocol is to GET
// the session (which waits the apply out) and inspect `interactions` to
// decide whether the answer landed before re-sending. Documented in
// docs/OPERATIONS.md.
func (s *Server) handleSessionAnswer(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sch, ok := s.sessions.Schema(id)
	if !ok {
		s.writeSessionNotFound(w, id)
		return
	}
	var req sessionAnswerRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Answers) == 0 {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, `body needs "answers": {attr: value, ...}`)
		return
	}
	answers, err := decodeAnswers(sch, req.Answers)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadEntity, err.Error())
		return
	}
	out, err := runTimed(r.Context(), s.cfg.Timeout, nil, func() registryOutcome {
		res, err := s.sessions.Upsert(id, nil, "", live.Op{Kind: live.Answers, Answers: answers})
		return registryOutcome{res, err}
	})
	if err != nil {
		s.writeError(w, http.StatusGatewayTimeout, codeTimeout, err.Error())
		return
	}
	s.met.observeStats(out.res.Stats)
	if out.err != nil {
		s.writeSessionError(w, id, out.err, http.StatusUnprocessableEntity, codeContradiction)
		return
	}
	writeJSON(w, encodeSessionState(id, out.res))
}

// handleSessionDelete is DELETE /v1/session/{id}: drop the session. Expired
// and unknown ids answer 404; deleting twice is a client error the second
// time.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sessions.Remove(id) {
		s.writeSessionNotFound(w, id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

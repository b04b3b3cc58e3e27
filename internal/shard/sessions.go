package shard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// Session affinity: the coordinator is stateless, so the owning backend is
// encoded in the session id itself. A fleet session id is
// "<backend-tag>.<backend-session-id>" — the tag is derived from the
// backend URL, so any coordinator (including one restarted mid-
// conversation) resolves the id to the same backend.

// splitSessionID resolves a fleet session id to its backend and the
// backend-local id.
func (c *Coordinator) splitSessionID(id string) (*backend, string, bool) {
	tag, inner, ok := strings.Cut(id, ".")
	if !ok || inner == "" {
		return nil, "", false
	}
	b, ok := c.byTag[tag]
	if !ok {
		return nil, "", false
	}
	return b, inner, true
}

// rewriteSessionBody retags the backend's session id in a session-state
// response body so the client only ever sees fleet ids.
func rewriteSessionBody(data []byte, tag string) []byte {
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(data, &obj); err != nil {
		return data
	}
	var inner string
	if raw, ok := obj["session"]; !ok || json.Unmarshal(raw, &inner) != nil || inner == "" {
		return data
	}
	retagged, err := json.Marshal(tag + "." + inner)
	if err != nil {
		return data
	}
	obj["session"] = retagged
	out, err := json.Marshal(obj)
	if err != nil {
		return data
	}
	return out
}

// handleSessionCreate is POST /v1/session on the coordinator: route the
// create to the entity's owner through send (failing over while nothing
// stateful exists client-side yet), then hand the client a tagged session
// id that pins every follow-up request to that backend.
func (c *Coordinator) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	body, key, ok := c.readKeyed(w, r)
	if !ok {
		return
	}
	rep, err := c.send(r.Context(), keyed{key: key, method: http.MethodPost, path: "/v1/session", body: body})
	if err != nil {
		c.writeSendError(w, err, "session")
		return
	}
	if rep.status == http.StatusOK {
		rep.data = rewriteSessionBody(rep.data, rep.b.tag)
	}
	relay(w, rep.status, rep.data)
}

// handleSessionProxy serves GET/DELETE /v1/session/{id} and POST
// /v1/session/{id}/answer: strip the backend tag, forward to the pinned
// backend under the per-hop Timeout, retag the response. Sessions are
// stateful, so there is no sibling to retry on — an unreachable owner
// answers 502 and the client re-creates (or the operator restores from a
// snapshot).
func (c *Coordinator) handleSessionProxy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	b, inner, ok := c.splitSessionID(id)
	if !ok {
		c.writeError(w, http.StatusNotFound, codeBadSessionID,
			fmt.Sprintf("no live session %q: id does not name a fleet backend", id))
		return
	}
	path := "/v1/session/" + inner
	if strings.HasSuffix(r.URL.Path, "/answer") {
		path += "/answer"
	}
	var body []byte
	if r.Method == http.MethodPost {
		if body, ok = c.readBody(w, r); !ok {
			return
		}
	}
	status, data, _, err := c.do(r.Context(), b, r.Method, path, body)
	if err != nil {
		c.writeError(w, http.StatusBadGateway, codeBackendDown, err.Error())
		return
	}
	if status == http.StatusOK {
		data = rewriteSessionBody(data, b.tag)
	}
	relay(w, status, data)
}

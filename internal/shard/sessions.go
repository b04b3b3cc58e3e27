package shard

import (
	"encoding/json"
	"fmt"
	"io"
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
// create to the entity's owner (retrying siblings while nothing stateful
// exists yet), then hand the client a tagged session id that pins every
// follow-up request to that backend.
func (c *Coordinator) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := c.readBody(w, r)
	if !ok {
		return
	}
	var req keyedRequest
	if err := json.Unmarshal(body, &req); err != nil {
		c.writeError(w, http.StatusBadRequest, codeBadRequest, "bad JSON: "+err.Error())
		return
	}
	key := req.Entity.ID
	if key == "" {
		key = fmt.Sprintf("%016x", hash64(string(body)))
	}
	var tried uint64
	for {
		b, idx := c.route(key, tried)
		if b == nil {
			c.met.noBackend.Add(1)
			c.writeError(w, http.StatusServiceUnavailable, codeNoBackend, "no live backend for session")
			return
		}
		if tried != 0 {
			b.retries.Add(1)
		}
		tried |= 1 << uint(idx)
		status, data, retryable, err := c.post(r.Context(), b, "/v1/session", "application/json", body)
		if err != nil {
			if retryable {
				// Nothing stateful exists client-side yet: the abandoned
				// create (if the backend got that far) expires by TTL.
				continue
			}
			c.writeError(w, http.StatusBadGateway, codeBackendDown, err.Error())
			return
		}
		if status == http.StatusOK {
			data = rewriteSessionBody(data, b.tag)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(data)
		return
	}
}

// handleSessionProxy serves GET/DELETE /v1/session/{id} and POST
// /v1/session/{id}/answer: strip the backend tag, forward to the pinned
// backend, retag the response. Sessions are stateful, so there is no
// sibling to retry on — an unreachable owner answers 502 and the client
// re-creates (or the operator restores from a snapshot).
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

	var status int
	var data []byte
	switch r.Method {
	case http.MethodPost:
		body, ok := c.readBody(w, r)
		if !ok {
			return
		}
		var err error
		status, data, _, err = c.post(r.Context(), b, path, "application/json", body)
		if err != nil {
			c.writeError(w, http.StatusBadGateway, codeBackendDown, err.Error())
			return
		}
	default: // GET, DELETE
		b.requests.Add(1)
		req, err := http.NewRequestWithContext(r.Context(), r.Method, b.url+path, nil)
		if err != nil {
			c.writeError(w, http.StatusBadGateway, codeBackendDown, err.Error())
			return
		}
		resp, err := c.cfg.Client.Do(req)
		if err != nil {
			c.markDown(b)
			c.writeError(w, http.StatusBadGateway, codeBackendDown, err.Error())
			return
		}
		defer resp.Body.Close()
		status = resp.StatusCode
		if data, err = io.ReadAll(resp.Body); err != nil {
			c.markDown(b)
			c.writeError(w, http.StatusBadGateway, codeBackendDown, err.Error())
			return
		}
	}
	if status == http.StatusOK {
		data = rewriteSessionBody(data, b.tag)
	}
	if status == http.StatusNoContent {
		w.WriteHeader(status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

package shard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// Live-entity affinity and replication: entity keys are client-chosen, so
// plain ring placement on the key IS the affinity — every coordinator routes
// the same key to the same primary owner with no id tagging. The per-entity
// resolution state is kept warm on one sibling too: every acknowledged
// upsert is forwarded asynchronously, in acknowledgment order, to the ring's
// next live owner as an ordinary log-replay POST (see replica.go). When the
// primary dies mid-stream, GETs and upserts fail over along the key's
// preference list and land on that replica.
//
// Semantics under failover are at-least-once, never silent loss: a delta
// whose first attempt died on the wire may be replayed on the replica even
// though the primary had applied it (the acknowledgment was lost, so the
// client-visible contract holds), and a replica that missed forwards serves
// with an explicit replica_lag count in the body plus an
// X-Crshard-Replica-Lag header rather than passing stale state off as
// current. A fully replicated entity answers byte-identically on either
// backend. GET 404s are relayed verbatim — retrying a 404 on a sibling
// would resurrect deleted entities — and DELETE invalidates the replica
// through the same ordered queue as the upserts it may trail.

// handleEntityProxy serves POST /v1/entity/{key}/rows and GET/DELETE
// /v1/entity/{key} through send: a transport error fails over to the warm
// replica, the next owner on the preference list, after a backoff that
// gives the owner time to come back from a blip and the replica time to
// absorb in-flight forwards.
func (c *Coordinator) handleEntityProxy(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if key == "" {
		c.writeError(w, http.StatusBadRequest, codeBadRequest, "empty entity key")
		return
	}
	path := "/v1/entity/" + key
	if strings.HasSuffix(r.URL.Path, "/rows") {
		path += "/rows"
	}
	k := keyed{key: key, method: r.Method, path: path}
	if r.Method == http.MethodPost {
		var ok bool
		if k.body, ok = c.readBody(w, r); !ok {
			return
		}
		gen := c.repl.forwardGen(key)
		k.resend = func(rep reply, attempt int) error {
			// The entity is held by the coordinator's own traffic: this
			// upsert's earlier attempt (sent, then lost on the wire) or a
			// replica forward of an earlier delta, running or over by now
			// or cut off with the backend still applying it. Each settles
			// shortly: wait, then resend to the backend that answered. A
			// busy answer with no such cause is a client racing itself and
			// is relayed.
			if isEntityBusy(rep.status, rep.data) && (attempt > 0 || c.repl.mayHold(key, rep.idx, gen)) {
				return fmt.Errorf("entity %s busy on %s", key, rep.b.url)
			}
			return nil
		}
	}
	rep, err := c.send(r.Context(), k)
	if err != nil {
		c.writeSendError(w, err, "entity")
		return
	}
	c.finishEntity(w, k, rep)
}

// isEntityBusy reports whether a backend answer is 409 entity_busy: the
// entity was in use by another operation when the request arrived.
func isEntityBusy(status int, data []byte) bool {
	if status != http.StatusConflict {
		return false
	}
	var env struct {
		Error *errorJSON `json:"error"`
	}
	return json.Unmarshal(data, &env) == nil && env.Error != nil && env.Error.Code == "entity_busy"
}

// finishEntity relays a backend's answer to the client and runs the
// replication bookkeeping it implies: acknowledged upserts enqueue their
// replica forward, deletes enqueue the replica invalidation, and a serving
// backend that is behind the acknowledged delta count gets the gap stamped
// onto the response.
func (c *Coordinator) finishEntity(w http.ResponseWriter, k keyed, rep reply) {
	method, key, idx, status, data := k.method, k.key, rep.idx, rep.status, rep.data
	if idx != c.ring.Owners(key, 1)[0] {
		switch method {
		case http.MethodGet:
			c.met.replicaFailoverGet.Add(1)
		case http.MethodPost:
			c.met.replicaFailoverUpsert.Add(1)
		case http.MethodDelete:
			c.met.replicaFailoverDelete.Add(1)
		}
	}
	if len(c.backends) > 1 {
		switch {
		case method == http.MethodPost && status < 300:
			if c.repl.onAck(key, idx, replJob{method: http.MethodPost, path: k.path, body: k.body, servedIdx: idx}) {
				go c.drainRepl(key)
			}
		case method == http.MethodDelete && (status < 300 || status == http.StatusNotFound):
			// Even a 404 invalidates the replica: the serving backend may
			// have lost the entity (restart) while the replica still holds
			// it — without the forward, the next failover would resurrect a
			// deleted entity.
			if c.repl.onDelete(key, replJob{method: http.MethodDelete, path: k.path, servedIdx: idx}) {
				go c.drainRepl(key)
			}
		}
	}
	if !isEntityBusy(status, data) {
		c.repl.settle(key, idx)
	}
	if lag := c.repl.lag(key, idx); lag > 0 {
		w.Header().Set("X-Crshard-Replica-Lag", strconv.FormatInt(lag, 10))
		if method != http.MethodDelete && status < 300 {
			if stamped, ok := injectReplicaLag(data, lag); ok {
				data = stamped
			}
		}
	}
	relay(w, status, data)
}

// injectReplicaLag stamps the serving backend's replication gap into a JSON
// object body. Only called when lag > 0, so a current backend's response
// passes through byte-identical.
func injectReplicaLag(data []byte, lag int64) ([]byte, bool) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil || m == nil {
		return nil, false
	}
	m["replica_lag"] = json.RawMessage(strconv.FormatInt(lag, 10))
	out, err := json.Marshal(m)
	if err != nil {
		return nil, false
	}
	return out, true
}

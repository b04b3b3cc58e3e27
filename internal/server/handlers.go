package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"conflictres"
	"conflictres/internal/httpstream"
)

// Error codes carried in the structured error envelope.
const (
	codeBadRequest  = "bad_request"
	codeBadRules    = "invalid_rules"
	codeBadEntity   = "invalid_entity"
	codeUnknownMode = "unknown_mode"
	codeTooLarge    = "body_too_large"
	codeTimeout     = "timeout"
	codeResolveFail = "resolve_failed"
)

func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	s.met.errorResponses.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]*errorJSON{"error": {Code: code, Message: msg}})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// decodeBody decodes a size-limited JSON request body, distinguishing
// oversized bodies from malformed ones.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) (ok bool) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		s.writeError(w, http.StatusBadRequest, codeBadRequest, "bad JSON: "+err.Error())
		return false
	}
	return true
}

// compileWireRules compiles a wire rule set into a rule set, with no cache
// involvement; it is the pure codec path (also the fuzzing surface).
func compileWireRules(rs *ruleSetJSON) (*conflictres.RuleSet, error) {
	sch, err := conflictres.NewSchema(rs.Schema...)
	if err != nil {
		return nil, err
	}
	return conflictres.CompileRulesTrust(sch, rs.Currency, rs.CFDs, rs.Trust)
}

// compileRequest compiles a request's wire rule set (see compileRules) and
// parses its mode name, the empty name being the default SAT strategy. On
// failure it answers 400 itself — "invalid_rules", or "unknown_mode" for a
// name no strategy claims — and reports false.
func (s *Server) compileRequest(w http.ResponseWriter, rs *ruleSetJSON, modeName string) (*conflictres.RuleSet, cacheKey, conflictres.ResolutionMode, bool) {
	rules, rk, err := s.compileRules(rs)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRules, err.Error())
		return nil, rk, conflictres.ResolutionMode{}, false
	}
	strat, err := conflictres.ParseStrategy(modeName)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeUnknownMode, err.Error())
		return nil, rk, conflictres.ResolutionMode{}, false
	}
	return rules, rk, conflictres.ResolutionMode{Strategy: strat}, true
}

// compileRules returns the compiled rule set for a wire rule set and its
// rulesKey, consulting the rule cache so identical (schema, Σ, Γ, trust)
// parse only once server-wide. The key also seeds every result-cache key
// the request computes (specKey), so rule texts are hashed once per
// request, not once per entity.
func (s *Server) compileRules(rs *ruleSetJSON) (*conflictres.RuleSet, cacheKey, error) {
	key := rulesKey(rs)
	if v, ok := s.rules.get(key); ok {
		return v.(*conflictres.RuleSet), key, nil
	}
	rules, err := compileWireRules(rs)
	if err != nil {
		return nil, key, err
	}
	s.rules.put(key, rules)
	return rules, key, nil
}

// runTimed executes f under the server's per-entity deadline. The solver is
// not preemptible, so an expired deadline abandons the goroutine; done (may
// be nil) is called exactly when f actually finishes, letting callers tie
// pool slots to real work rather than to the wrapper's return.
func runTimed[T any](ctx context.Context, timeout time.Duration, done func(), f func() T) (T, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	ch := make(chan T, 1)
	go func() {
		v := f()
		if done != nil {
			done()
		}
		ch <- v
	}()
	select {
	case v := <-ch:
		return v, nil
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// resolveEntity is the one stateless entity path of /v1/resolve, batch
// and dataset: it resolves a bound entity through the result cache under
// key (see specKey), which holds the engine's own *conflictres.Result, and
// reports whether the answer came from the cache. Errors carry their
// envelope code (see errCode). The caller holds a worker slot that release
// (may be nil) frees exactly once when the entity's heavy work is over: at
// once on a cache hit, or when the solver goroutine finishes otherwise —
// on timeout that is later than this function's return, so Config.Workers
// bounds true solver concurrency, not just wrapper count.
func (s *Server) resolveEntity(ctx context.Context, rules *conflictres.RuleSet, key cacheKey, spec *conflictres.Spec, maxRounds int, mode conflictres.ResolutionMode, release func()) (res *conflictres.Result, cached bool, err error) {
	if release == nil {
		release = func() {}
	}
	s.met.observeMode(mode.Strategy)
	if v, ok := s.results.get(key); ok {
		release()
		return v.(*conflictres.Result), true, nil
	}
	type outcome struct {
		res *conflictres.Result
		err error
	}
	o, err := runTimed(ctx, s.cfg.Timeout, release, func() outcome {
		// rules.Resolve serves the entity from a pooled pipeline (skeleton +
		// solver reused across requests under this rule set).
		res, err := rules.Resolve(spec, nil, conflictres.Options{MaxRounds: maxRounds, Mode: mode})
		return outcome{res, err}
	})
	if err != nil {
		return nil, false, &codedErr{codeTimeout, err}
	}
	if o.err != nil {
		return nil, false, &codedErr{codeResolveFail, o.err}
	}
	s.met.observe(o.res)
	s.results.put(key, o.res)
	return o.res, false, nil
}

// codedErr carries an error-envelope code with its error.
type codedErr struct {
	code string
	err  error
}

func (e *codedErr) Error() string { return e.err.Error() }
func (e *codedErr) Unwrap() error { return e.err }

// errCode is the envelope code of an entity's error.
func errCode(err error) string {
	var ce *codedErr
	if errors.As(err, &ce) {
		return ce.code
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return codeTimeout
	}
	return codeResolveFail
}

// entityError counts one failed stream entity and renders its in-band
// error.
func (s *Server) entityError(err error) *errorJSON {
	s.met.entitiesFailed.Add(1)
	return &errorJSON{Code: errCode(err), Message: err.Error()}
}

// scanErrClass classifies a batch-stream scanner error: a line over the size
// cap is the client's fault (413); anything else is a bad request/stream.
func scanErrClass(err error) (code string, status int) {
	if errors.Is(err, bufio.ErrTooLong) {
		return codeTooLarge, http.StatusRequestEntityTooLarge
	}
	return codeBadRequest, http.StatusBadRequest
}

func errStatus(code string) int {
	switch code {
	case codeTimeout:
		return http.StatusGatewayTimeout
	case codeResolveFail:
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// handleResolve is POST /v1/resolve: one entity, JSON in, JSON out.
func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request) {
	var req resolveRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	rules, rk, mode, ok := s.compileRequest(w, &req.ruleSetJSON, req.Mode)
	if !ok {
		return
	}
	e := &req.Entity
	spec, err := bindEntity(rules, e.Tuples, e.Sources, e.Orders)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadEntity, err.Error())
		return
	}
	res, cached, err := s.resolveEntity(r.Context(), rules, specKey(rk, spec, e.Orders, mode), spec, req.MaxRounds, mode, nil)
	if err != nil {
		code := errCode(err)
		s.writeError(w, errStatus(code), code, err.Error())
		return
	}
	out := encodeResult(rules.Schema(), res, cached)
	out.ID = e.ID
	writeJSON(w, out)
}

// handleValidate is POST /v1/validate: validity check only; with
// "explain": true an invalid specification is diagnosed to a minimal
// conflicting constraint set.
func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		resolveRequest
		Explain bool `json:"explain,omitempty"`
	}
	if !s.decodeBody(w, r, &req) {
		return
	}
	// Validity is strategy-independent, but an unknown mode is still the
	// client's error — reject it the same way the resolve endpoints do.
	rules, _, _, ok := s.compileRequest(w, &req.ruleSetJSON, req.Mode)
	if !ok {
		return
	}
	spec, err := bindEntity(rules, req.Entity.Tuples, req.Entity.Sources, req.Entity.Orders)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadEntity, err.Error())
		return
	}
	type verdict struct {
		Valid  bool
		Reason string
	}
	v, err := runTimed(r.Context(), s.cfg.Timeout, nil, func() verdict {
		var out verdict
		out.Valid = conflictres.Validate(spec)
		if !out.Valid && req.Explain {
			if reason, ok := conflictres.Explain(spec); ok {
				out.Reason = reason
			}
		}
		return out
	})
	if err != nil {
		s.writeError(w, http.StatusGatewayTimeout, codeTimeout, err.Error())
		return
	}
	writeJSON(w, struct {
		ID     string `json:"id,omitempty"`
		Valid  bool   `json:"valid"`
		Reason string `json:"reason,omitempty"`
	}{ID: req.Entity.ID, Valid: v.Valid, Reason: v.Reason})
}

// batchHeader is the first NDJSON line of a batch request.
type batchHeader struct {
	ruleSetJSON
	MaxRounds int `json:"maxRounds,omitempty"`
	// Mode selects the resolution strategy for every entity in the stream.
	Mode string `json:"mode,omitempty"`
}

// handleBatch is POST /v1/resolve/batch: NDJSON streaming. The first line
// compiles the shared rule set; every following line is one entity. Results
// stream back one JSON line each, in completion order, carrying the input's
// id and zero-based entity index. Memory use is bounded by the worker-pool
// width, not the stream length. Result lines are gated until the request
// stream is fully received (HTTP/1.1 cannot full-duplex; see httpstream),
// then stream as they complete.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	gw := httpstream.NewGatedWriter(w)
	defer gw.Open() // cover reads that stop short of body EOF
	sc := bufio.NewScanner(gw.BodyEOF(r.Body))
	// Scanner's effective cap is max(cap(buf), max): keep the initial buffer
	// at or below the configured limit so small limits actually bind.
	bufSize := 64 << 10
	if int(s.cfg.MaxBodyBytes) < bufSize {
		bufSize = int(s.cfg.MaxBodyBytes)
	}
	sc.Buffer(make([]byte, bufSize), int(s.cfg.MaxBodyBytes))

	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			code, status := scanErrClass(err)
			s.writeError(w, status, code, "bad header line: "+err.Error())
			return
		}
		s.writeError(w, http.StatusBadRequest, codeBadRequest, "empty batch: missing header line")
		return
	}
	var hdr batchHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		s.writeError(w, http.StatusBadRequest, codeBadRequest, "bad header line: "+err.Error())
		return
	}
	rules, rk, mode, ok := s.compileRequest(w, &hdr.ruleSetJSON, hdr.Mode)
	if !ok {
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	var wmu sync.Mutex // serializes result lines
	enc := json.NewEncoder(gw)
	emit := func(out *resultJSON) {
		wmu.Lock()
		defer wmu.Unlock()
		enc.Encode(out)
		gw.Flush()
	}

	sem := make(chan struct{}, s.cfg.Workers)
	var wg sync.WaitGroup
	index := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		i := index
		index++
		// The entity's cells alias this one copy of the line.
		e, err := decodeBatchEntity(bytes.Clone(line))
		if err != nil {
			s.met.entitiesFailed.Add(1)
			emit(&resultJSON{Index: &i, Error: &errorJSON{Code: codeBadRequest, Message: "bad entity line: " + err.Error()}})
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out *resultJSON
			spec, err := bindEntity(rules, e.Tuples, e.Sources, e.Orders)
			if err != nil {
				<-sem
				out = &resultJSON{Error: s.entityError(&codedErr{codeBadEntity, err})}
			} else if res, cached, err := s.resolveEntity(r.Context(), rules, specKey(rk, spec, e.Orders, mode), spec, hdr.MaxRounds, mode, func() { <-sem }); err != nil {
				out = &resultJSON{Error: s.entityError(err)}
			} else {
				out = encodeResult(rules.Schema(), res, cached)
			}
			out.ID, out.Index = e.ID, &i
			emit(out)
		}()
	}
	scanErr := sc.Err()
	wg.Wait()
	if scanErr != nil {
		// The status line is long gone; report the failure in-band.
		code, _ := scanErrClass(scanErr)
		i := index
		emit(&resultJSON{Index: &i, Error: &errorJSON{Code: code, Message: "stream aborted: " + scanErr.Error()}})
	}
}

// handleHealthz is GET /healthz: liveness only — the process is up and
// serving. It stays green through shutdown draining; readiness is /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// readyzJSON is the GET /readyz body: readiness as distinct from liveness.
type readyzJSON struct {
	Ready bool `json:"ready"`
	// RuleCacheEntries reports how many compiled rule sets are warm; a
	// coordinator can prefer warmed backends but must not require warmth —
	// a fresh backend is ready, just slower on its first request per rule
	// set.
	RuleCacheEntries int  `json:"ruleCacheEntries"`
	RuleCacheWarm    bool `json:"ruleCacheWarm"`
	// SessionJanitor reports the expiry janitor goroutine: "running" or
	// "stopped". A stopped janitor means Close ran (shutdown draining) —
	// session state would silently stop expiring, so the server reports
	// itself unready.
	SessionJanitor string `json:"sessionJanitor"`
	LiveSessions   int    `json:"liveSessions"`
	// LiveEntities counts the change-data-capture entities currently warm
	// behind the /v1/entity endpoints.
	LiveEntities int `json:"liveEntities"`
}

// handleReadyz is GET /readyz: 200 while the server should receive new
// work, 503 once Close has run (shutdown draining) or the session janitor
// has exited. External load balancers and the crshard health checker route
// on this; /healthz remains a pure liveness probe.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	_, _, ruleEntries := s.rules.stats()
	st := readyzJSON{
		Ready:            !s.closed.Load() && s.janitorUp.Load(),
		RuleCacheEntries: ruleEntries,
		RuleCacheWarm:    ruleEntries > 0,
		SessionJanitor:   "running",
		LiveSessions:     s.sessions.Live(),
		LiveEntities:     s.liveReg.Live(),
	}
	if !s.janitorUp.Load() {
		st.SessionJanitor = "stopped"
	}
	if !st.Ready {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable) //crlint:ignore wireerr readiness 503 carries the status JSON probes parse, not an error envelope
		json.NewEncoder(w).Encode(&st)
		return
	}
	writeJSON(w, &st)
}

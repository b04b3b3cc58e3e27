package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"conflictres"
	"conflictres/internal/backoff"
	"conflictres/internal/expo"
)

// Error codes the coordinator adds on top of the backend envelope.
const (
	codeBadRequest  = "bad_request"
	codeBadRules    = "invalid_rules"
	codeUnknownMode = "unknown_mode"
	codeTooLarge    = "body_too_large"
	// codeNoBackend answers work that exhausted every live backend: the
	// entity was routed, retried along its preference list, and no owner
	// could take it.
	codeNoBackend = "no_backend"
	// codeBackendDown answers session traffic whose owning backend is
	// unreachable — sessions are stateful, so there is no sibling to retry
	// on; the client re-creates the session (or the fleet restores it from
	// a snapshot, see server.RestoreSessions). It also answers a keyed
	// request that failed without a retry, and the batch or dataset
	// entities a backend left unanswered on a stream that ended cleanly.
	codeBackendDown = "backend_unavailable"
	// codeBadSessionID answers session ids that do not carry a known
	// backend tag — the id was not minted by this fleet.
	codeBadSessionID = "session_not_found"
	// codeRetryBudget answers work that was still failing over when its
	// per-request retry budget ran out: the fleet is degraded but the
	// coordinator stops hammering survivors and sheds the request instead.
	codeRetryBudget = "retry_budget_exhausted"
)

// backend is one crserve instance in the fleet.
type backend struct {
	url string // normalized base URL, no trailing slash
	// tag prefixes every session id minted through this backend, giving
	// session affinity without coordinator state: it survives coordinator
	// restarts because it is derived from the backend URL alone.
	tag string
	// up is flipped down on transport errors (mark-down) and back up by
	// the health checker; routing skips down backends.
	up atomic.Bool

	requests atomic.Int64 // HTTP requests sent to this backend
	errors   atomic.Int64 // transport failures talking to this backend
	retries  atomic.Int64 // jobs this backend received as retries after a sibling failed
}

// Config tunes the coordinator.
type Config struct {
	// Addr is the listen address (default ":8371").
	Addr string
	// Backends lists the crserve base URLs (required, e.g.
	// "http://10.0.0.1:8372"). Order is irrelevant: placement depends only
	// on the URL set, so every coordinator with the same set routes alike.
	Backends []string
	// VNodes is the virtual nodes per backend on the ring (default 64).
	VNodes int
	// Pipeline bounds the in-flight sub-batches per backend (default 4).
	Pipeline int
	// ChunkEntities is the batch sub-request size: how many entities ride
	// in one POST to a backend (default 32).
	ChunkEntities int
	// Timeout bounds one backend request (default 2m — it covers a whole
	// sub-batch or dataset partition, not a single entity).
	Timeout time.Duration
	// HealthInterval is the backend probe cadence (default 2s).
	HealthInterval time.Duration
	// MaxBodyBytes caps request bodies and NDJSON lines (default 8 MiB).
	MaxBodyBytes int64
	// ShutdownGrace bounds how long Serve waits for in-flight requests on
	// shutdown (default 10s).
	ShutdownGrace time.Duration
	// RetryBase is the first backoff delay when a keyed request, a session
	// create, an entity proxy hop, a replication forward or a wave of batch
	// or dataset entities retries after a transport failure (default
	// 25ms). Delays double per attempt with ±50% jitter.
	RetryBase time.Duration
	// RetryCap bounds one backoff delay (default 1s).
	RetryCap time.Duration
	// RetryBudget bounds the total time one client request may spend
	// failing over before the coordinator sheds it with 503
	// retry_budget_exhausted (default 15s). The clock starts at the first
	// transport failure — a slow-but-healthy first attempt still gets the
	// full Timeout — and is a context deadline threaded through
	// Coordinator.send, so it also cuts a retry attempt that outlives it.
	// A batch or dataset stream keeps one budget per failed hop: the
	// backoff pauses of the hop's unanswered entities and of every later
	// wave of them charge it, while each rerouted hop keeps the full
	// Timeout; a wave whose pause it cuts short answers
	// retry_budget_exhausted in-band.
	RetryBudget time.Duration
	// Client overrides the HTTP client used to talk to backends (tests).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8371"
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.Pipeline <= 0 {
		c.Pipeline = 4
	}
	if c.ChunkEntities <= 0 {
		c.ChunkEntities = 32
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Minute
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryCap <= 0 {
		c.RetryCap = time.Second
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 15 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// Coordinator fronts a crserve fleet behind the single-server wire API.
type Coordinator struct {
	cfg      Config
	ring     *Ring
	backends []*backend
	byTag    map[string]*backend
	met      *metrics
	mux      *http.ServeMux
	retry    backoff.Policy
	repl     *replTracker
	// batchHeaders and datasetHeaders hold the stream header lines that
	// passed checkHeader lately, by their exact bytes: the line's own copy,
	// and a dataset header decoded.
	batchHeaders   headerSet[[]byte]
	datasetHeaders headerSet[*datasetStreamHeader]

	// rndMu guards rnd: jitter draws come from request goroutines, the
	// health loop and replication drains concurrently.
	rndMu sync.Mutex
	rnd   *rand.Rand

	healthStop chan struct{}
	closeOnce  sync.Once
}

// jitter draws one uniform float64 in [0, 1) for backoff jitter.
func (c *Coordinator) jitter() float64 {
	c.rndMu.Lock()
	defer c.rndMu.Unlock()
	return c.rnd.Float64()
}

// New builds a coordinator over the configured backends. It starts a
// background health checker; call Close when done.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("shard: no backends configured")
	}
	if len(cfg.Backends) > 64 {
		// Retry bookkeeping packs tried backends into a uint64 bitmask.
		return nil, fmt.Errorf("shard: at most 64 backends supported, got %d", len(cfg.Backends))
	}
	names := make([]string, len(cfg.Backends))
	for i, u := range cfg.Backends {
		names[i] = strings.TrimRight(u, "/")
	}
	ring, err := NewRing(names, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:   cfg,
		ring:  ring,
		met:   &metrics{},
		mux:   http.NewServeMux(),
		byTag: make(map[string]*backend, len(names)),
		retry: backoff.New(cfg.RetryBase, cfg.RetryCap),
		repl:  newReplTracker(),
		// Seeded per coordinator so a fleet of coordinators restarted
		// together does not retry or probe in lockstep.
		rnd:        rand.New(rand.NewSource(time.Now().UnixNano())),
		healthStop: make(chan struct{}),
	}
	for _, u := range names {
		b := &backend{url: u, tag: fmt.Sprintf("%08x", uint32(hash64(u)))}
		if prev, dup := c.byTag[b.tag]; dup {
			return nil, fmt.Errorf("shard: backend tag collision between %q and %q", prev.url, u)
		}
		b.up.Store(true) // optimistic: the first failed request marks down
		c.byTag[b.tag] = b
		c.backends = append(c.backends, b)
	}
	go c.healthLoop()
	reg := expo.New()
	route := c.met.register(reg, c.ring, c.backends, c.repl.pending).Routes(c.mux, "endpoint")
	route("POST /v1/resolve", "resolve", c.handleResolve)
	route("POST /v1/resolve/batch", "batch", c.handleBatch)
	route("POST /v1/resolve/dataset", "dataset", c.handleDataset)
	route("POST /v1/validate", "validate", c.handleValidate)
	route("POST /v1/session", "session", c.handleSessionCreate)
	route("GET /v1/session/{id}", "session", c.handleSessionProxy)
	route("POST /v1/session/{id}/answer", "session", c.handleSessionProxy)
	route("DELETE /v1/session/{id}", "session", c.handleSessionProxy)
	route("POST /v1/entity/{key}/rows", "entity", c.handleEntityProxy)
	route("GET /v1/entity/{key}", "entity", c.handleEntityProxy)
	route("DELETE /v1/entity/{key}", "entity", c.handleEntityProxy)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /readyz", c.handleReadyz)
	c.mux.Handle("GET /metrics", reg)
	return c, nil
}

// Handler returns the root handler (what tests mount on httptest).
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Close stops the health checker. In-flight requests are unaffected.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.healthStop) })
}

// ListenAndServe serves until ctx is cancelled, then shuts down gracefully.
func (c *Coordinator) ListenAndServe(ctx context.Context) error {
	srv := &http.Server{
		Addr:              c.cfg.Addr,
		Handler:           c.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	defer c.Close()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return fmt.Errorf("shard: %w", err)
	case <-ctx.Done():
	}
	shCtx, cancel := context.WithTimeout(context.Background(), c.cfg.ShutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return fmt.Errorf("shard: shutdown: %w", err)
	}
	return nil
}

// healthLoop probes every backend around each HealthInterval: /readyz 200
// means ready; a backend without /readyz (older build) falls back to
// /healthz, so the coordinator still drives mixed fleets. Probe failure
// marks down, probe success revives a marked-down backend.
//
// Cadence is per backend, jittered, and backs off exponentially (capped at
// 8× the interval) while a backend stays down: a fleet restart would
// otherwise have every coordinator hammering every dead backend in
// lockstep at a fixed beat. The ticker runs at a quarter of the interval
// only to check which backends are due.
func (c *Coordinator) healthLoop() {
	downPolicy := backoff.New(c.cfg.HealthInterval, 8*c.cfg.HealthInterval)
	quantum := c.cfg.HealthInterval / 4
	if quantum <= 0 {
		quantum = c.cfg.HealthInterval
	}
	failures := make([]int, len(c.backends))
	next := make([]time.Time, len(c.backends)) // zero: due immediately
	t := time.NewTicker(quantum)
	defer t.Stop()
	for {
		select {
		case <-c.healthStop:
			return
		case <-t.C:
			now := time.Now()
			for i, b := range c.backends {
				if now.Before(next[i]) {
					continue
				}
				if c.probe(b) {
					b.up.Store(true)
					failures[i] = 0
					// Jitter the healthy cadence too (attempt 1 of the down
					// policy is one jittered HealthInterval).
					next[i] = now.Add(downPolicy.Delay(1, c.jitter))
				} else {
					b.up.Store(false)
					failures[i]++
					next[i] = now.Add(downPolicy.Delay(failures[i], c.jitter))
				}
			}
		}
	}
}

func (c *Coordinator) probe(b *backend) bool {
	probeOne := func(path string) (int, bool) {
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HealthInterval)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+path, nil)
		if err != nil {
			return 0, false
		}
		resp, err := c.cfg.Client.Do(req)
		if err != nil {
			return 0, false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, true
	}
	code, ok := probeOne("/readyz")
	if ok && code == http.StatusNotFound {
		code, ok = probeOne("/healthz")
	}
	return ok && code == http.StatusOK
}

// markDown flips a backend down after a transport error; the health checker
// is the only path back up.
func (c *Coordinator) markDown(b *backend) {
	b.errors.Add(1)
	b.up.Store(false)
}

// blame marks b down after a transport error on a hop made for a caller
// whose context is ctx, and reports whether it did. A hop whose caller gave
// up — a client timeout or disconnect cancels ctx, and the hop with it —
// failed through no fault of the backend, which stays up. A per-hop Timeout
// expiry leaves ctx live, so it still marks the backend down.
func (c *Coordinator) blame(ctx context.Context, b *backend) bool {
	if ctx.Err() != nil {
		return false
	}
	c.markDown(b)
	return true
}

// route picks the first live, untried backend along key's preference list.
// tried is a bitmask of backend indices already attempted for this piece of
// work (the fleet is capped at 64 backends by this representation).
func (c *Coordinator) route(key string, tried uint64) (*backend, int) {
	for _, idx := range c.ring.Owners(key, c.ring.Backends()) {
		if tried&(1<<uint(idx)) != 0 {
			continue
		}
		if c.backends[idx].up.Load() {
			return c.backends[idx], idx
		}
	}
	return nil, -1
}

func (c *Coordinator) writeError(w http.ResponseWriter, status int, code, msg string) {
	c.met.errorResponses.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]*errorJSON{"error": {Code: code, Message: msg}})
}

// readBody reads a size-limited request body.
func (c *Coordinator) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			c.writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return nil, false
		}
		c.writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return nil, false
	}
	return body, true
}

// do sends one request to backend b under the per-hop Timeout and returns
// the full response. A non-nil body goes out as JSON; nil sends no payload.
// Transport errors (request or body read) mark the backend down and report
// retryable, unless the caller's ctx is done: then the caller's error comes
// back, not retryable, and the backend stays up.
func (c *Coordinator) do(ctx context.Context, b *backend, method, path string, body []byte) (status int, respBody []byte, retryable bool, err error) {
	b.requests.Add(1)
	hop, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(hop, method, b.url+path, rd)
	if err != nil {
		return 0, nil, false, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.cfg.Client.Do(req)
	if err == nil {
		defer resp.Body.Close()
		var data []byte
		if data, err = io.ReadAll(resp.Body); err == nil {
			return resp.StatusCode, data, false, nil
		}
	}
	if !c.blame(ctx, b) {
		return 0, nil, false, ctx.Err()
	}
	return 0, nil, true, err
}

// retryBudgetCtx derives the per-request failover budget: attempts and
// their backoff pauses all charge against one deadline, so a degraded
// fleet sheds work instead of stacking unbounded retries.
func (c *Coordinator) retryBudgetCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, c.cfg.RetryBudget)
}

// keyed is one request that send routes by key along the ring.
type keyed struct {
	key, method, path string
	body              []byte // nil for GET and DELETE
	// tried marks backends, by index, that the request must not go to.
	tried uint64
	// resend, when set, sees every answer that arrived, with the attempt
	// count before it. A non-nil error asks for the same backend again
	// after a backoff and is the cause reported if the budget runs out
	// first; nil accepts the answer.
	resend func(rep reply, attempt int) error
	// sent, when set, gathers the backends, by index, the request was
	// sent to.
	sent *uint64
}

// reply is the answer a keyed request got, and the backend that gave it.
type reply struct {
	b      *backend
	idx    int
	status int
	data   []byte
}

// errNoBackend reports a keyed request with no live, untried owner left.
var errNoBackend = errors.New("no live backend")

// budgetError reports a keyed request whose retry budget ran out while it
// backed off from cause.
type budgetError struct{ cause error }

func (e *budgetError) Error() string { return "retry budget exhausted: " + e.cause.Error() }

// send is the fleet's one attempt loop for keyed requests: resolve,
// validate, session creates, entity requests and replica forwards. It sends
// k to the first live, untried owner along the key's preference list. On a
// transport error it marks that backend tried, backs off under the unified
// policy and routes again; an answer that k.resend declines is sent again
// to the same backend after the same backoff. The retry budget starts at
// the first failure and covers every pause and later attempt, so a
// slow-but-healthy first attempt still gets the full per-hop Timeout.
// Replaying a keyed request on another backend is safe: resolution is a
// pure computation, a create that died on the wire leaves only a session
// that expires by TTL, and live-entity deltas are at-least-once.
func (c *Coordinator) send(ctx context.Context, k keyed) (reply, error) {
	parent := ctx
	cancel := context.CancelFunc(func() {})
	defer func() { cancel() }()
	tried := k.tried
	var rep reply
	for attempt := 0; ; attempt++ {
		if rep.b == nil {
			if rep.b, rep.idx = c.route(k.key, tried); rep.b == nil {
				return reply{}, errNoBackend
			}
		}
		if attempt > 0 {
			rep.b.retries.Add(1)
		}
		if k.sent != nil {
			*k.sent |= 1 << uint(rep.idx)
		}
		var retryable bool
		var err error
		rep.status, rep.data, retryable, err = c.do(ctx, rep.b, k.method, k.path, k.body)
		switch {
		case err == nil:
			if k.resend == nil {
				return rep, nil
			}
			if err = k.resend(rep, attempt); err == nil {
				return rep, nil
			}
		case !retryable:
			if attempt > 0 && parent.Err() == nil {
				// The retry budget, not the caller, ran out mid-attempt.
				return reply{}, &budgetError{cause: err}
			}
			return reply{}, err
		default:
			tried |= 1 << uint(rep.idx)
			rep.b = nil // the next owner on the preference list
		}
		if attempt == 0 {
			ctx, cancel = c.retryBudgetCtx(parent)
		}
		if c.retry.Sleep(ctx, attempt+1, c.jitter) != nil {
			return reply{}, &budgetError{cause: err}
		}
	}
}

// writeSendError answers a keyed request that send gave up on; what names
// the routed thing in the no-backend message.
func (c *Coordinator) writeSendError(w http.ResponseWriter, err error, what string) {
	var budget *budgetError
	switch {
	case errors.As(err, &budget):
		c.met.retryBudgetExhausted.Add(1)
		c.writeError(w, http.StatusServiceUnavailable, codeRetryBudget,
			fmt.Sprintf("retry budget exhausted after %s: %v", c.cfg.RetryBudget, budget.cause))
	case errors.Is(err, errNoBackend):
		c.met.noBackend.Add(1)
		c.writeError(w, http.StatusServiceUnavailable, codeNoBackend, "no live backend for "+what)
	default:
		c.writeError(w, http.StatusBadGateway, codeBackendDown, err.Error())
	}
}

// relay writes a backend's answer to the client: a bare 204, or the JSON
// body under the backend's status.
func relay(w http.ResponseWriter, status int, data []byte) {
	if status == http.StatusNoContent {
		w.WriteHeader(status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

// readKeyed reads a /v1/resolve-shaped body and the key it routes on.
func (c *Coordinator) readKeyed(w http.ResponseWriter, r *http.Request) (body []byte, key string, ok bool) {
	if body, ok = c.readBody(w, r); !ok {
		return nil, "", false
	}
	var req keyedRequest
	if err := json.Unmarshal(body, &req); err != nil {
		c.writeError(w, http.StatusBadRequest, codeBadRequest, "bad JSON: "+err.Error())
		return nil, "", false
	}
	key = req.Entity.ID
	if key == "" {
		// No entity id: route on the body so identical requests still hit
		// the same backend (and its result cache).
		key = fmt.Sprintf("%016x", hash64(string(body)))
	}
	return body, key, true
}

// forwardKeyed relays one complete JSON request (resolve, validate) to the
// entity's owner through send.
func (c *Coordinator) forwardKeyed(w http.ResponseWriter, r *http.Request, path string) {
	body, key, ok := c.readKeyed(w, r)
	if !ok {
		return
	}
	rep, err := c.send(r.Context(), keyed{key: key, method: http.MethodPost, path: path, body: body})
	if err != nil {
		c.writeSendError(w, err, "entity")
		return
	}
	relay(w, rep.status, rep.data)
}

func (c *Coordinator) handleResolve(w http.ResponseWriter, r *http.Request) {
	c.forwardKeyed(w, r, "/v1/resolve")
}

func (c *Coordinator) handleValidate(w http.ResponseWriter, r *http.Request) {
	c.forwardKeyed(w, r, "/v1/validate")
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"status": "ok"})
}

// handleReadyz reports the coordinator ready while at least one backend is
// live: with an empty fleet every request would answer no_backend, so the
// coordinator should not receive traffic.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	up := 0
	for _, b := range c.backends {
		if b.up.Load() {
			up++
		}
	}
	st := struct {
		Ready         bool `json:"ready"`
		BackendsUp    int  `json:"backendsUp"`
		BackendsTotal int  `json:"backendsTotal"`
	}{Ready: up > 0, BackendsUp: up, BackendsTotal: len(c.backends)}
	w.Header().Set("Content-Type", "application/json")
	if !st.Ready {
		w.WriteHeader(http.StatusServiceUnavailable) //crlint:ignore wireerr readiness 503 carries the status JSON probes parse, not an error envelope
	}
	json.NewEncoder(w).Encode(&st)
}

// checkHeader validates a stream header's rule set (trust included) and
// mode as crserve does, in crserve's order, so a bad header answers the
// same 400 before any backend traffic or streamed output. The compiled set
// is discarded — backends compile (and cache) their own.
func checkHeader(rs *ruleSetJSON, mode string) (code string, err error) {
	sch, err := conflictres.NewSchema(rs.Schema...)
	if err == nil {
		_, err = conflictres.CompileRulesTrust(sch, rs.Currency, rs.CFDs, rs.Trust)
	}
	if err != nil {
		return codeBadRules, err
	}
	if _, err := conflictres.ParseStrategy(mode); err != nil {
		return codeUnknownMode, err
	}
	return "", nil
}

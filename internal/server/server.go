package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"conflictres/internal/expo"
	"conflictres/internal/live"
)

// Config tunes the resolution server.
type Config struct {
	// Addr is the listen address (default ":8372").
	Addr string
	// Workers bounds the per-request worker pool for batch resolution
	// (default GOMAXPROCS).
	Workers int
	// CacheSize is the result-cache capacity in entries (default 4096;
	// negative disables caching).
	CacheSize int
	// RuleCacheSize is the compiled-rule-set cache capacity (default 128).
	RuleCacheSize int
	// Timeout bounds the solver time of one entity (default 30s; negative
	// disables the deadline).
	Timeout time.Duration
	// MaxBodyBytes caps single-request bodies and batch NDJSON lines
	// (default 8 MiB).
	MaxBodyBytes int64
	// ShutdownGrace bounds how long Serve waits for in-flight requests on
	// shutdown (default 10s).
	ShutdownGrace time.Duration
	// SessionCap bounds the live interactive sessions held by the session
	// registry (default 1024). Over the cap, the least recently used session
	// is evicted; its next request answers 404 and the client re-creates.
	SessionCap int
	// SessionTTL expires sessions idle for longer than this (default 15m;
	// negative disables expiry). Expiry is enforced lazily on access and by
	// a background janitor.
	SessionTTL time.Duration
	// SessionSweep is the janitor's sweep interval (default 1m).
	SessionSweep time.Duration
	// LiveCap bounds the live entities held by the registry behind the
	// /v1/entity endpoints (default 512). Over the cap, the least recently
	// used entity is evicted (its pooled pipeline returns to the pool); its
	// next upsert rebuilds from the rows it carries.
	LiveCap int
	// LiveTTL expires live entities idle for longer than this (default
	// 15m; negative disables expiry). Enforced lazily on access and by the
	// session janitor's sweep.
	LiveTTL time.Duration
	// LiveFault, when set, is consulted before every live-entity upsert is
	// applied: a non-nil error rejects the delta un-acknowledged with 503.
	// Chaos runs wire a fault.Injector hook here; nil in production.
	LiveFault func() error
	// OnDrain, when set, runs after graceful shutdown has drained in-flight
	// requests and before the server's registries close — the seam where
	// crserve writes its session and live-entity snapshots. It must run
	// there: after Close both registries answer ErrShutdown and their
	// entities are gone.
	OnDrain func(*Server)
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8372"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.CacheSize < 0:
		c.CacheSize = 0
	case c.CacheSize == 0:
		c.CacheSize = 4096
	}
	switch {
	case c.RuleCacheSize < 0:
		c.RuleCacheSize = 0
	case c.RuleCacheSize == 0:
		c.RuleCacheSize = 128
	}
	switch {
	case c.Timeout < 0:
		c.Timeout = 0
	case c.Timeout == 0:
		c.Timeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	if c.SessionCap <= 0 {
		c.SessionCap = 1024
	}
	switch {
	case c.SessionTTL < 0:
		c.SessionTTL = 0 // disables expiry
	case c.SessionTTL == 0:
		c.SessionTTL = 15 * time.Minute
	}
	if c.SessionSweep <= 0 {
		c.SessionSweep = time.Minute
	}
	if c.LiveCap <= 0 {
		c.LiveCap = 512
	}
	switch {
	case c.LiveTTL < 0:
		c.LiveTTL = 0 // disables expiry
	case c.LiveTTL == 0:
		c.LiveTTL = 15 * time.Minute
	}
	return c
}

// Server is the crserve HTTP resolution service.
type Server struct {
	cfg     Config
	results *lru // specKey -> *conflictres.Result; liveEntityKey -> *entityStateJSON
	rules   *lru // rulesKey -> *conflictres.RuleSet
	// sessions and liveReg are two instances of the one keyed store:
	// answers entities behind /v1/session, rows entities behind /v1/entity.
	sessions *live.Registry
	liveReg  *live.Registry
	met      *metrics
	mux      *http.ServeMux

	// Janitor lifecycle, surfaced by /readyz: a server whose janitor has
	// stopped (Close was called) must stop receiving load-balanced traffic
	// even though /healthz still answers.
	janitorStop chan struct{}
	janitorUp   atomic.Bool
	closeOnce   sync.Once
	closed      atomic.Bool
}

// New builds a server; zero Config fields take defaults. The server owns a
// background janitor goroutine for session expiry: call Close when done
// (ListenAndServe does so on shutdown; tests must call it themselves).
func New(cfg Config) *Server {
	s := &Server{
		cfg:         cfg.withDefaults(),
		met:         &metrics{},
		mux:         http.NewServeMux(),
		janitorStop: make(chan struct{}),
	}
	s.results = newLRU(s.cfg.CacheSize)
	s.rules = newLRU(s.cfg.RuleCacheSize)
	s.sessions = live.NewRegistry(s.cfg.SessionCap, s.cfg.SessionTTL)
	s.liveReg = live.NewRegistry(s.cfg.LiveCap, s.cfg.LiveTTL)
	if s.cfg.LiveFault != nil {
		s.liveReg.SetFault(s.cfg.LiveFault)
	}
	s.janitorUp.Store(true)
	go s.janitor(s.cfg.SessionSweep)
	reg := expo.New()
	route := s.met.register(reg, s.results, s.sessions, s.liveReg).Routes(s.mux, "endpoint")
	route("POST /v1/resolve", "resolve", s.handleResolve)
	route("POST /v1/resolve/batch", "batch", s.handleBatch)
	route("POST /v1/resolve/dataset", "dataset", s.handleDataset)
	route("POST /v1/validate", "validate", s.handleValidate)
	route("POST /v1/session", "session", s.handleSessionCreate)
	route("GET /v1/session/{id}", "session", s.handleSessionGet)
	route("POST /v1/session/{id}/answer", "session", s.handleSessionAnswer)
	route("DELETE /v1/session/{id}", "session", s.handleSessionDelete)
	route("POST /v1/entity/{key}/rows", "entity", s.handleEntityUpsert)
	route("GET /v1/entity/{key}", "entity", s.handleEntityGet)
	route("DELETE /v1/entity/{key}", "entity", s.handleEntityDelete)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.Handle("GET /metrics", reg)
	return s
}

// Handler returns the root handler; it is what tests mount on httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// janitor periodically sweeps expired sessions until Close. It runs on its
// own goroutine; /readyz reports its liveness.
func (s *Server) janitor(every time.Duration) {
	defer s.janitorUp.Store(false)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			s.sessions.Sweep()
			s.liveReg.Sweep()
		}
	}
}

// Close releases the server's background resources (the janitor and both
// registries). It does not wait for in-flight requests;
// ListenAndServe's graceful shutdown does that before calling Close. After
// Close the server answers /readyz with 503 while /healthz stays green, so
// fleet health checkers drain it instead of declaring it dead.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.closed.Store(true)
		close(s.janitorStop)
		// Each blocks on in-flight deltas; the live registry then returns
		// every entity's pooled pipeline.
		s.sessions.Close()
		s.liveReg.Close()
	})
}

// ListenAndServe serves until ctx is cancelled, then shuts down gracefully,
// waiting up to ShutdownGrace for in-flight requests.
func (s *Server) ListenAndServe(ctx context.Context) error {
	srv := &http.Server{
		Addr:              s.cfg.Addr,
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	defer s.Close()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return fmt.Errorf("server: %w", err)
	case <-ctx.Done():
	}
	shCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return fmt.Errorf("server: shutdown: %w", err)
	}
	if s.cfg.OnDrain != nil {
		s.cfg.OnDrain(s)
	}
	return nil
}

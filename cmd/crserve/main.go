// Command crserve serves conflict resolution over HTTP.
//
// Usage:
//
//	crserve [-addr :8372] [-workers N] [-cache-size N] [-rule-cache-size N]
//	        [-timeout 30s] [-max-body 8388608]
//	        [-session-cap N] [-session-ttl 15m] [-session-sweep 1m]
//	        [-session-snapshot sessions.ndjson]
//	        [-live-cap N] [-live-ttl 15m] [-live-snapshot entities.ndjson]
//	        [-pprof-addr 127.0.0.1:6060]
//
// Endpoints:
//
//	POST /v1/resolve         one entity, JSON in / JSON out
//	POST /v1/resolve/batch   NDJSON streaming: header line with the shared
//	                         rule set, then one entity per line; one result
//	                         per line back
//	POST /v1/resolve/dataset NDJSON streaming: header line with rules + key
//	                         columns, then one raw row per line; rows are
//	                         grouped into entities by key — one result per
//	                         entity plus a summary line back
//	POST /v1/validate        validity check (optionally with an explanation)
//	POST /v1/session             start a stateful interactive session; the
//	                             server keeps the entity's incremental
//	                             solver alive between rounds
//	GET  /v1/session/{id}        current session state
//	POST /v1/session/{id}/answer fold user answers in (Se ⊕ Ot) and return
//	                             the next suggestion
//	DELETE /v1/session/{id}      drop the session
//	POST /v1/entity/{key}/rows   change-data-capture feed: fold new rows
//	                             into the entity's persistent resolution
//	                             state and return the re-resolved outcome
//	GET  /v1/entity/{key}        the entity's current resolution state
//	DELETE /v1/entity/{key}      drop the entity
//	GET  /healthz            liveness probe (green even while draining)
//	GET  /readyz             readiness probe (503 once shutdown starts)
//	GET  /metrics            Prometheus-style counters
//
// With -session-snapshot and -live-snapshot the server restores interactive
// sessions and live entities (the /v1/entity change-data-capture feed) from
// the named NDJSON files at startup (a missing file is a fresh start) and
// writes them back on graceful shutdown — the rolling-restart path for a
// fleet backend. Both files share one line format: each entity's key, rules,
// mode and row-log (every acknowledged delta, in order), replayed at
// startup, so clients keep their session ids and accumulated resolution
// state survives restarts.
//
// The CRFAULT_* environment variables (CRFAULT_SEED, CRFAULT_WRITE_FAIL,
// ...) arm deterministic fault injection on the live upsert path and the
// snapshot writer; they exist for chaos testing and stay inert when unset.
//
// With -pprof-addr a net/http/pprof mux is served on a second, separate
// listener (opt-in, keep it on loopback or an internal interface — the
// profiling endpoints are not meant for untrusted clients):
//
//	crserve -pprof-addr 127.0.0.1:6060 &
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//
// See docs/OPERATIONS.md for the full wire formats with curl examples.
//
// The server shuts down gracefully on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"conflictres/internal/fault"
	"conflictres/internal/server"
	"conflictres/internal/version"
)

func main() {
	var cfg server.Config
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.StringVar(&cfg.Addr, "addr", ":8372", "listen address")
	flag.IntVar(&cfg.Workers, "workers", 0, "batch worker pool width (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.CacheSize, "cache-size", 0, "result cache entries (0 = default 4096, negative disables)")
	flag.IntVar(&cfg.RuleCacheSize, "rule-cache-size", 0, "compiled rule-set cache entries (0 = default 128)")
	flag.DurationVar(&cfg.Timeout, "timeout", 0, "per-entity solver deadline (0 = default 30s, negative disables)")
	flag.Int64Var(&cfg.MaxBodyBytes, "max-body", 0, "max request body / batch line bytes (0 = default 8 MiB)")
	flag.IntVar(&cfg.SessionCap, "session-cap", 0, "max live interactive sessions before LRU eviction (0 = default 1024)")
	flag.DurationVar(&cfg.SessionTTL, "session-ttl", 0, "idle session expiry (0 = default 15m, negative disables)")
	flag.DurationVar(&cfg.SessionSweep, "session-sweep", 0, "session janitor sweep interval (0 = default 1m)")
	flag.IntVar(&cfg.LiveCap, "live-cap", 0, "max live entities before LRU eviction (0 = default 512)")
	flag.DurationVar(&cfg.LiveTTL, "live-ttl", 0, "idle live-entity expiry (0 = default 15m, negative disables)")
	snapshotPath := flag.String("session-snapshot", "", "restore sessions from this NDJSON file at startup and snapshot back on shutdown (empty = disabled)")
	liveSnapshotPath := flag.String("live-snapshot", "", "restore live entities from this NDJSON file at startup and snapshot back on shutdown (empty = disabled)")
	pprofAddr := flag.String("pprof-addr", "", "serve /debug/pprof on this extra address (empty = disabled; keep it internal)")
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("crserve"))
		return
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "crserve: unexpected arguments: %v\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		// A dedicated mux so the profiling endpoints never leak onto the
		// public listener; DefaultServeMux stays untouched.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("crserve: pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pm); err != nil {
				log.Printf("crserve: pprof server: %v", err)
			}
		}()
	}

	inj := fault.FromEnv()
	if inj != nil {
		log.Printf("crserve: fault injection armed from CRFAULT_* environment")
		cfg.LiveFault = inj.LiveUpsert
	}
	var snaps []snapshotFile
	if *snapshotPath != "" {
		snaps = append(snaps, snapshotFile{*snapshotPath, "sessions",
			(*server.Server).SnapshotSessions, (*server.Server).RestoreSessions})
	}
	if *liveSnapshotPath != "" {
		snaps = append(snaps, snapshotFile{*liveSnapshotPath, "live entities",
			(*server.Server).SnapshotLiveEntities, (*server.Server).RestoreLiveEntities})
	}
	// Snapshots must be written before Close tears the registries down, so
	// they run on the server's drain seam.
	cfg.OnDrain = func(s *server.Server) {
		for _, sf := range snaps {
			sf.save(s, inj)
		}
	}

	srv := server.New(cfg)
	for _, sf := range snaps {
		sf.restore(srv)
	}
	log.Printf("crserve: listening on %s", cfg.Addr)
	start := time.Now()
	if err := srv.ListenAndServe(ctx); err != nil {
		log.Fatalf("crserve: %v", err)
	}
	log.Printf("crserve: shut down cleanly after %s", time.Since(start).Round(time.Second))
}

// snapshotFile is one snapshot file the server restores at startup and
// writes back on shutdown.
type snapshotFile struct {
	path, what string
	write      func(*server.Server, io.Writer) error
	read       func(*server.Server, io.Reader) (int, error)
}

// restore replays the snapshot file. A missing file is a fresh start; a
// partly bad file restores what it can.
func (sf snapshotFile) restore(srv *server.Server) {
	f, err := os.Open(sf.path)
	if err != nil {
		if !os.IsNotExist(err) {
			log.Printf("crserve: %s snapshot: %v", sf.what, err)
		}
		return
	}
	defer f.Close()
	n, err := sf.read(srv, f)
	if err != nil {
		log.Printf("crserve: %s restore: %v", sf.what, err)
	}
	log.Printf("crserve: restored %d %s from %s", n, sf.what, sf.path)
}

// save writes the snapshot on the drain seam (before the registries close),
// atomically via a temp file so a crash or injected partial write
// mid-snapshot cannot corrupt the last good snapshot — the rename only
// happens after a complete write.
func (sf snapshotFile) save(srv *server.Server, inj *fault.Injector) {
	tmp := sf.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		log.Printf("crserve: %s snapshot: %v", sf.what, err)
		return
	}
	err = sf.write(srv, inj.Writer(f))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, sf.path)
	}
	if err != nil {
		os.Remove(tmp)
		log.Printf("crserve: %s snapshot: %v", sf.what, err)
		return
	}
	log.Printf("crserve: snapshotted %s to %s", sf.what, sf.path)
}

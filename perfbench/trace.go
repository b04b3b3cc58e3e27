package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"conflictres/internal/server"
	"conflictres/internal/shard"
)

// span is one timed call at a layer boundary; proc numbers the backend
// that served a "server" span.
type span struct {
	name       string
	id, parent int64
	proc       int
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
	next  int64
}

func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timeIt records fn as a span named name. Replayed engine calls are not
// nested in time under the handler spans they stand for; the ledger joins
// them per operation instead.
func (t *tracer) timeIt(name string, fn func()) {
	id := t.newID()
	start := time.Now()
	fn()
	t.add(span{name: name, id: id, start: start, end: time.Now()})
}

type spanKey struct{}

// parentHeader carries the coordinator span id to the backend span on the
// coordinator's backend requests.
const parentHeader = "X-Perfbench-Parent"

func isProbePath(p string) bool {
	return p == "/readyz" || p == "/healthz" || p == "/metrics"
}

// wrapCoordinator records one "shard" span per client request and puts its
// id into the request context, where the coordinator's backend requests
// inherit it.
func (t *tracer) wrapCoordinator(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if isProbePath(r.URL.Path) {
			h.ServeHTTP(w, r)
			return
		}
		id := t.newID()
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.add(span{name: "shard", id: id, start: start, end: time.Now()})
	})
}

// wrapBackend records one "server" span per backend request, parented to
// the coordinator span that caused it; replica forwards run on the
// coordinator's background context and arrive without a parent.
func (t *tracer) wrapBackend(proc int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if isProbePath(r.URL.Path) {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(parentHeader), 10, 64)
		id := t.newID()
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(span{name: "server", id: id, parent: parent, proc: proc, start: start, end: time.Now()})
	})
}

// parentTransport stamps the coordinator span id onto backend requests.
type parentTransport struct{ base http.RoundTripper }

func (p parentTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanKey{}).(int64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(parentHeader, strconv.FormatInt(id, 10))
	}
	return p.base.RoundTrip(r)
}

// tracedFleet is the same topology as the process fleet, served in this
// process on loopback so that the benchmark can wrap each layer's handler.
type tracedFleet struct {
	url      string
	servers  []*server.Server
	coord    *shard.Coordinator
	https    []*http.Server
	serveErr chan error
}

func startTracedFleet(t *tracer) (*tracedFleet, error) {
	tf := &tracedFleet{serveErr: make(chan error, 3)} // one per listener
	listen := func(h http.Handler) (string, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		hs := &http.Server{Handler: h}
		tf.https = append(tf.https, hs)
		go func() { tf.serveErr <- hs.Serve(l) }()
		return "http://" + l.Addr().String(), nil
	}
	var urls []string
	for i := 0; i < 2; i++ {
		s := server.New(server.Config{})
		tf.servers = append(tf.servers, s)
		u, err := listen(t.wrapBackend(i, s.Handler()))
		if err != nil {
			tf.stop()
			return nil, err
		}
		urls = append(urls, u)
	}
	c, err := shard.New(shard.Config{
		Backends: urls,
		Client:   &http.Client{Transport: parentTransport{base: http.DefaultTransport}},
	})
	if err != nil {
		tf.stop()
		return nil, err
	}
	tf.coord = c
	if tf.url, err = listen(t.wrapCoordinator(c.Handler())); err != nil {
		tf.stop()
		return nil, err
	}
	return tf, nil
}

// stop closes every listener and waits for each Serve call to return.
func (tf *tracedFleet) stop() {
	for _, hs := range tf.https {
		_ = hs.Close() // listener already closed is fine
	}
	for range tf.https {
		if err := <-tf.serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("note: traced fleet listener: %v\n", err)
		}
	}
	if tf.coord != nil {
		tf.coord.Close()
	}
	for _, s := range tf.servers {
		s.Close()
	}
}

// engineLayers are the engine layers the replay records.
var engineLayers = []string{
	"conflictres.bind", "encode.build", "encode.extend", "sat.load", "sat.append",
	"sat.solve", "core.deduce", "core.truevalues", "core.suggest", "core.trustfill",
}

// traceRun produces the per-layer metrics: counters from the untraced
// process-fleet window just measured (o, m), then a traced in-process
// window of the same length, then an engine replay of the traced window's
// inputs. It prints the ledger ahead of the JSON result.
func traceRun(ctx context.Context, w workload, window time.Duration, o *outcome, m *fleetMeasure) (metrics map[string]metricOut, attempted, failed int, err error) {
	out := counterMetrics(o, m)

	t := &tracer{}
	tf, err := startTracedFleet(t)
	if err != nil {
		return nil, 0, 0, err
	}
	client := newClient()
	if err := w.warm(ctx, client, tf.url); err != nil {
		tf.stop()
		return nil, 0, 0, err
	}
	t.mu.Lock()
	t.spans = nil // set-up traffic is not part of the ledger
	t.mu.Unlock()
	meter := newSlotMeter(os.Getpid())
	to := w.run(ctx, client, tf.url, window, meter)
	if meter.err != nil {
		tf.stop()
		return nil, 0, 0, meter.err
	}
	to.finish(w, meter)
	// The benchmark process's CPU time over the traced window: the
	// in-process fleet's work, plus the load generator's small share.
	cpuMsPerOp := 0.0
	if w.cpuLedger() {
		_, cpu, _, _ := slotTotals(to.slots, allSlots(to.slots))
		cpuMsPerOp = ratio(1000*cpu, float64(to.ops))
	}
	// Replica forwards of the window's upserts belong to the ledger; the
	// output check's own requests that follow do not.
	if err := waitReplicated(ctx, client, tf.url); err != nil {
		tf.stop()
		return nil, 0, 0, err
	}
	t.mu.Lock()
	handlerSpans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	if to.fetch != nil {
		to.fetch()
	}
	client.CloseIdleConnections()
	tf.stop()

	// The replay runs warm, like the fleet's pools and caches: one pass
	// over a few operations is discarded, and the collector starts clean.
	w.replay(to, &tracer{}, window/20)
	runtime.GC()
	rt := &tracer{}
	replayOps := w.replay(to, rt, window)
	// The output check runs after the replay: on a host whose speed
	// drifts over minutes, the replay is compared with the traced window
	// and should follow it closely.
	attempted, failed = to.check()
	l := buildLedger(handlerSpans, to.ops, rt.spans, replayOps, cpuMsPerOp)
	l.overhead = ratio(to.e2e["p50_ms"], o.e2e["p50_ms"]) - 1
	l.print(o, to, replayOps)
	for k, v := range l.metrics() {
		out[k] = v
	}
	return out, attempted, failed, nil
}

// ledger is the per-operation time split of the traced window.
type ledger struct {
	perOp        map[string]float64 // layer -> ms per operation (self time)
	backendCalls float64
	replicaMs    float64
	coverage     float64
	overhead     float64
	requestMs    float64
}

// buildLedger combines handler spans (ops operations) with replayed engine
// spans (replayOps operations). Coordinator self time is its span minus
// the union of its backend spans. A registry call ("live.call") wraps the
// engine calls of its delta; the registry's own time ("live.upsert") is
// timed apart, so the layer sum reconciles only if the replayed engine
// calls and registry steps add up to the call.
//
// Backend time is counted one of two ways. By default it is wall time: the
// union of each backend's request spans (concurrent requests share the
// CPU, so summed durations would count the same wall time twice), which is
// right where requests run one entity at a time. Where a backend resolves a
// request's entities on parallel workers, its wall time under-counts the
// work done in it; cpuMsPerOp > 0 then gives the process CPU time per
// operation over the traced window, and backend time is that minus the
// coordinator's self time. Either way, server self time is backend time
// minus the replayed engine time per operation.
func buildLedger(handler []span, ops int, engine []span, replayOps int, cpuMsPerOp float64) *ledger {
	l := &ledger{perOp: make(map[string]float64)}
	children := make(map[int64][]span)
	byProc := make(map[int][]span)
	var coordSelf, serverBusy, replicaTotal time.Duration
	calls := 0
	for _, s := range handler {
		if s.name == "server" {
			if s.parent == 0 {
				replicaTotal += s.dur()
			} else {
				children[s.parent] = append(children[s.parent], s)
				byProc[s.proc] = append(byProc[s.proc], s)
				calls++
			}
		}
	}
	for _, spans := range byProc {
		serverBusy += union(spans, time.Time{}, time.Time{})
	}
	clients := 0
	for _, s := range handler {
		if s.name != "shard" {
			continue
		}
		clients++
		coordSelf += s.dur() - union(children[s.id], s.start, s.end)
	}
	perOp := func(d time.Duration, n int) float64 {
		return ratio(float64(d)/float64(time.Millisecond), float64(n))
	}
	engineTotal := make(map[string]time.Duration)
	for _, s := range engine {
		engineTotal[s.name] += s.dur()
	}
	eng := 0.0
	for _, name := range engineLayers {
		v := perOp(engineTotal[name], replayOps)
		l.perOp[name] = v
		eng += v
	}
	l.perOp["server.rule_compile"] = perOp(engineTotal["conflictres.compile"], 1)
	l.perOp["live.get"] = perOp(engineTotal["live.get"], replayOps)
	l.perOp["live.upsert"] = perOp(engineTotal["live.upsert"], replayOps)
	inServer := eng
	if call := perOp(engineTotal["live.call"], replayOps); call > 0 {
		// A live upsert's registry call wraps its engine calls: the
		// server's own time is what remains of the handler after it.
		inServer = call
	}
	l.perOp["shard.self"] = perOp(coordSelf, ops)
	backendMs := perOp(serverBusy, ops)
	if cpuMsPerOp > 0 {
		backendMs = cpuMsPerOp - l.perOp["shard.self"]
	}
	l.perOp["server.self"] = backendMs - inServer
	l.backendCalls = ratio(float64(calls), float64(clients))
	l.replicaMs = perOp(replicaTotal, ops)
	// Request time is the coordinator's own time plus the backends' time.
	// Layer self times add up to it exactly unless a replayed layer took
	// longer than the handler it stands for, which shows as a negative
	// self time, clipped to zero here and flagged.
	l.requestMs = l.perOp["shard.self"] + backendMs
	sum := 0.0
	for k, v := range l.perOp {
		if k == "server.rule_compile" || k == "live.get" {
			continue
		}
		if v < 0 {
			v = 0
		}
		sum += v
	}
	l.coverage = ratio(sum, l.requestMs)
	return l
}

// union is the wall time the spans cover, clipped to [lo, hi] when lo is
// set.
func union(spans []span, lo, hi time.Time) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	spans = append([]span(nil), spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	var total time.Duration
	curS, curE := spans[0].start, spans[0].end
	flush := func() {
		if !lo.IsZero() {
			if curS.Before(lo) {
				curS = lo
			}
			if curE.After(hi) {
				curE = hi
			}
		}
		if curE.After(curS) {
			total += curE.Sub(curS)
		}
	}
	for _, k := range spans[1:] {
		if k.start.After(curE) {
			flush()
			curS, curE = k.start, k.end
			continue
		}
		if k.end.After(curE) {
			curE = k.end
		}
	}
	flush()
	return total
}

// coverageLimit is how far the layer sum may drift from the request time
// before the ledger is flagged as not reconciling.
const coverageLimit = 0.05

func (l *ledger) print(o, traced *outcome, replayOps int) {
	type row struct {
		name string
		ms   float64
	}
	var rows []row
	total := 0.0
	for k, v := range l.perOp {
		if k == "server.rule_compile" || k == "live.get" {
			continue
		}
		rows = append(rows, row{k, v})
		if v > 0 {
			total += v
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ms > rows[j].ms })
	fmt.Printf("ledger: %d traced operations, %d replayed; request time %.4f ms/op\n", traced.ops, replayOps, l.requestMs)
	for _, r := range rows {
		fmt.Printf("  %-20s %10.4f ms/op %6.1f%%\n", r.name, r.ms, 100*ratio(r.ms, total))
	}
	fmt.Printf("  %-20s %10.4f ms (once)\n", "server.rule_compile", l.perOp["server.rule_compile"])
	fmt.Printf("  %-20s %10.4f ms/op (reads are served from the result cache; this is the registry read a miss costs)\n", "live.get", l.perOp["live.get"])
	fmt.Printf("  trace.coverage %.4f  trace.overhead %.4f (traced p50 %.4f ms vs untraced %.4f ms)\n",
		l.coverage, l.overhead, traced.e2e["p50_ms"], o.e2e["p50_ms"])
	if l.coverage < 1-coverageLimit || l.coverage > 1+coverageLimit {
		fmt.Printf("FLAG: layer self times sum to %.1f%% of request time, outside ±%.0f%%: the ledger does not reconcile\n",
			100*l.coverage, 100*coverageLimit)
	}
}

func (l *ledger) metrics() map[string]metricOut {
	ms := func(v float64) metricOut {
		if v < 0 {
			v = 0
		}
		return metricOut{Value: v, Unit: "ms"}
	}
	out := map[string]metricOut{
		"shard.self_ms":            ms(l.perOp["shard.self"]),
		"shard.backend_calls":      {Value: l.backendCalls, Unit: "count"},
		"shard.replica_forward_ms": ms(l.replicaMs),
		"server.self_ms":           ms(l.perOp["server.self"]),
		"server.rule_compile_ms":   ms(l.perOp["server.rule_compile"]),
		"conflictres.bind_ms":      ms(l.perOp["conflictres.bind"]),
		"encode.build_ms":          ms(l.perOp["encode.build"]),
		"encode.extend_ms":         ms(l.perOp["encode.extend"]),
		"sat.load_ms":              ms(l.perOp["sat.load"]),
		"sat.append_ms":            ms(l.perOp["sat.append"]),
		"sat.solve_ms":             ms(l.perOp["sat.solve"]),
		"core.deduce_ms":           ms(l.perOp["core.deduce"]),
		"core.suggest_ms":          ms(l.perOp["core.suggest"]),
		"core.truevalues_ms":       ms(l.perOp["core.truevalues"]),
		"core.trustfill_ms":        ms(l.perOp["core.trustfill"]),
		"live.upsert_ms":           ms(l.perOp["live.upsert"]),
		"live.get_ms":              ms(l.perOp["live.get"]),
		"trace.coverage":           {Value: l.coverage, Unit: "ratio"},
		"trace.overhead":           {Value: l.overhead, Unit: "ratio"},
	}
	return out
}

// counterMetrics derives the counter rows from the probes bracketing the
// untraced window: index 0 is the coordinator, 1 and 2 the backends.
func counterMetrics(o *outcome, m *fleetMeasure) map[string]metricOut {
	be := []int{1, 2}
	co := []int{0}
	d := func(idx []int, name, label string) float64 { return counterDelta(m.before, m.after, idx, name, label) }
	ops := float64(o.ops)
	hits, misses := d(be, "crserve_cache_hits_total", ""), d(be, "crserve_cache_misses_total", "")
	poolHits, poolMisses := d(be, "crserve_pool_hits_total", ""), d(be, "crserve_pool_misses_total", "")
	sExt, sReb := d(be, "crserve_session_extends_total", ""), d(be, "crserve_session_rebuilds_total", "")
	lExt, lReb := d(be, "crserve_live_extends_total", ""), d(be, "crserve_live_rebuilds_total", "")
	pending := 0.0
	for k, v := range m.after[0].metrics {
		if k == "crshard_replica_pending" {
			pending = v
		}
	}
	val := func(v float64, unit string) metricOut { return metricOut{Value: v, Unit: unit} }
	return map[string]metricOut{
		"server.cache_hit_ratio":            val(ratio(hits, hits+misses), "ratio"),
		"conflictres.pool_hit_ratio":        val(ratio(poolHits, poolHits+poolMisses), "ratio"),
		"conflictres.skeleton_rebuilds":     val(ratio(d(be, "crserve_pool_skeleton_rebuilds_total", ""), ops), "count"),
		"sat.solves_per_op":                 val(ratio(d(be, "crserve_session_solves_total", ""), ops), "count"),
		"sat.clauses_loaded_per_op":         val(ratio(d(be, "crserve_session_clauses_loaded_total", ""), ops), "count"),
		"core.session_extend_ratio":         val(ratio(sExt, sExt+sReb), "ratio"),
		"live.extend_ratio":                 val(ratio(lExt, lExt+lReb), "ratio"),
		"core.phase_validity_s":             val(ratio(d(be, "crserve_phase_seconds_total", `phase="validity"`), ops), "s"),
		"core.phase_deduce_s":               val(ratio(d(be, "crserve_phase_seconds_total", `phase="deduce"`), ops), "s"),
		"core.phase_suggest_s":              val(ratio(d(be, "crserve_phase_seconds_total", `phase="suggest"`), ops), "s"),
		"shard.merge_ms_per_job":            val(ratio(1000*d(co, "crshard_merge_seconds_total", `endpoint="batch"`), float64(o.batchJobs)), "ms"),
		"shard.retries":                     val(d(co, "crshard_backend_retries_total", ""), "count"),
		"shard.replica_forwards_per_upsert": val(ratio(d(co, "crshard_replica_forwards_total", ""), ops), "count"),
		"shard.replica_pending_end":         val(pending, "count"),
		"fleet.cores_busy":                  val(m.coresBusy, "cores"),
		"fleet.cpu_ms_per_op":               val(o.e2e["cpu_ms_per_op"], "ms"),
		"driver.late_p99_ms":                val(quantile(o.late, 0.99), "ms"),
		"host.steal_ratio":                  val(m.stealRatio, "ratio"),
	}
}

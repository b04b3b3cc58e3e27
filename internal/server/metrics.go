package server

import (
	"sync/atomic"

	"conflictres"
	"conflictres/internal/expo"
	"conflictres/internal/live"
)

// metrics holds the server's monotonic counters. Everything is atomic so the
// hot path never takes a lock for accounting. register documents each
// counter in its family's help text; the routes count requests.
type metrics struct {
	errorResponses, datasetRows                                    atomic.Int64
	entitiesResolved, entitiesInvalid, entitiesFailed              atomic.Int64
	modeCounts                                                     [4]atomic.Int64 // indexed by conflictres.Strategy
	validityNs, deduceNs, suggestNs                                atomic.Int64    // from core.Timing
	sessionRebuilds, sessionExtends, sessionSolves, sessionClauses atomic.Int64
	liveRestored, liveRestoreSkipped                               atomic.Int64
}

// observe accounts one resolved entity's outcome, phase timings and session
// reuse counters.
func (m *metrics) observe(res *conflictres.Result) {
	m.entitiesResolved.Add(1)
	if !res.Valid {
		m.entitiesInvalid.Add(1)
	}
	m.validityNs.Add(int64(res.Timing.Validity))
	m.deduceNs.Add(int64(res.Timing.Deduce))
	m.suggestNs.Add(int64(res.Timing.Suggest))
	m.observeStats(res.Session)
}

// observeStats accounts one request's solver-reuse work: a stateless
// resolve's whole session, or a stateful request's delta of its entity's
// counters.
func (m *metrics) observeStats(st conflictres.SessionStats) {
	m.sessionRebuilds.Add(int64(st.Rebuilds))
	m.sessionExtends.Add(int64(st.Extends))
	m.sessionSolves.Add(st.Solves)
	m.sessionClauses.Add(int64(st.ClausesLoaded))
}

// observeMode accounts one entity (or session/live-entity creation) routed
// under a resolution strategy.
func (m *metrics) observeMode(s conflictres.Strategy) {
	if i := int(s); i >= 0 && i < len(m.modeCounts) {
		m.modeCounts[i].Add(1)
	}
}

// register declares the server's metric families on r, in exposition
// order, and returns the request family the routes add their samples to.
func (m *metrics) register(r *expo.Registry, cache *lru, sessions, liveReg *live.Registry) *expo.Family {
	requests := r.Counter("crserve_requests_total", "HTTP requests served, per endpoint.")
	r.Counter("crserve_dataset_rows_total", "Rows streamed through /v1/resolve/dataset.").Int(m.datasetRows.Load)
	r.Counter("crserve_error_responses_total", "Non-2xx responses.").Int(m.errorResponses.Load)
	r.Counter("crserve_entities_total", "Entities resolved by /v1/resolve, batch and dataset, per outcome; session and live-entity work is not counted.").
		Int(m.entitiesResolved.Load, "outcome", "resolved").
		Int(m.entitiesInvalid.Load, "outcome", "invalid").
		Int(m.entitiesFailed.Load, "outcome", "failed")
	modes := r.Counter("crserve_resolve_mode_total", "Entities routed per requested strategy; sessions and live entities count at creation.")
	for i, name := range conflictres.StrategyNames() {
		modes.Int(m.modeCounts[i].Load, "mode", name)
	}
	r.Counter("crserve_phase_seconds_total", "Solver time per phase of /v1/resolve, batch and dataset entities; session and live-entity work is not counted.").
		Float(expo.Seconds(&m.validityNs), "phase", "validity").
		Float(expo.Seconds(&m.deduceNs), "phase", "deduce").
		Float(expo.Seconds(&m.suggestNs), "phase", "suggest")
	r.Counter("crserve_session_rebuilds_total", "Full encode-and-load cycles of resolution sessions.").Int(m.sessionRebuilds.Load)
	r.Counter("crserve_session_extends_total", "Se ⊕ Ot steps absorbed as incremental clause additions.").Int(m.sessionExtends.Load)
	r.Counter("crserve_session_solves_total", "SAT queries answered by shared session solvers.").Int(m.sessionSolves.Load)
	r.Counter("crserve_session_clauses_loaded_total", "Clauses attached to session solvers (loads and deltas).").Int(m.sessionClauses.Load)
	r.Gauge("crserve_session_store_live", "Interactive sessions held.").Int(func() int64 { return int64(sessions.Live()) })
	r.Counter("crserve_session_store_created_total", "Sessions created.").Int(func() int64 { return sessions.CountersSnapshot().Created })
	r.Counter("crserve_session_store_expired_total", "Sessions dropped by the TTL.").Int(func() int64 { return sessions.CountersSnapshot().Expired })
	r.Counter("crserve_session_store_evicted_total", "Sessions evicted by the LRU cap.").Int(func() int64 { return sessions.CountersSnapshot().Evicted })
	r.Gauge("crserve_live_entities", "Live entities held.").Int(func() int64 { return int64(liveReg.Live()) })
	r.Counter("crserve_live_extends_total", "Upsert deltas absorbed as incremental clause additions.").Int(func() int64 { return liveReg.CountersSnapshot().Extends })
	r.Counter("crserve_live_rebuilds_total", "Non-monotone upsert deltas (re-encoded).").Int(func() int64 { return liveReg.CountersSnapshot().Rebuilds })
	r.Counter("crserve_live_created_total", "Live entities created.").Int(func() int64 { return liveReg.CountersSnapshot().Created })
	r.Counter("crserve_live_expired_total", "Live entities dropped by the TTL.").Int(func() int64 { return liveReg.CountersSnapshot().Expired })
	r.Counter("crserve_live_evicted_total", "Live entities evicted by the LRU cap.").Int(func() int64 { return liveReg.CountersSnapshot().Evicted })
	r.Counter("crserve_live_snapshot_restored_total", "Live entities replayed from the snapshot at startup.").Int(m.liveRestored.Load)
	r.Counter("crserve_live_snapshot_skipped_total", "Snapshot lines dropped at restore.").Int(m.liveRestoreSkipped.Load)
	r.Counter("crserve_pool_hits_total", "Pipeline-pool checkouts served warm (process-wide).").Int(func() int64 { return conflictres.PoolCounters().Hits })
	r.Counter("crserve_pool_misses_total", "Pipeline-pool checkouts built fresh (process-wide).").Int(func() int64 { return conflictres.PoolCounters().Misses })
	r.Counter("crserve_pool_skeleton_rebuilds_total", "Encodings pooled pipelines built from zero (process-wide).").Int(func() int64 { return conflictres.PoolCounters().SkeletonRebuilds })
	r.Counter("crserve_cache_hits_total", "Result-cache hits.").Int(func() int64 { hits, _, _ := cache.stats(); return hits })
	r.Counter("crserve_cache_misses_total", "Result-cache misses.").Int(func() int64 { _, misses, _ := cache.stats(); return misses })
	r.Gauge("crserve_cache_entries", "Result-cache entries.").Int(func() int64 { _, _, size := cache.stats(); return int64(size) })
	r.Gauge("crserve_cache_hit_rate", "Result-cache hits over lookups.").Float(func() float64 {
		hits, misses, _ := cache.stats()
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	})
	return requests
}

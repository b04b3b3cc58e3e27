package shard

import (
	"sync/atomic"

	"conflictres/internal/expo"
)

// metrics holds the coordinator's monotonic counters; per-backend counters
// live on the backend structs. register documents each counter in its
// family's help text; the routes count requests.
type metrics struct {
	errorResponses, noBackend, retryBudgetExhausted                  atomic.Int64
	replicaForwards, replicaForwardFailures                          atomic.Int64
	replicaFailoverGet, replicaFailoverUpsert, replicaFailoverDelete atomic.Int64
	batchMergeNs, datasetMergeNs                                     atomic.Int64
}

// register declares the coordinator's metric families on r, in
// exposition order, and returns the request family the routes add their
// samples to. The backend set is fixed at New, so per-backend samples are
// declared once here.
func (m *metrics) register(r *expo.Registry, ring *Ring, backends []*backend, pending func() int) *expo.Family {
	requests := r.Counter("crshard_requests_total", "Client requests, per endpoint.")
	r.Counter("crshard_error_responses_total", "Non-2xx coordinator responses.").Int(m.errorResponses.Load)
	r.Counter("crshard_no_backend_total", "Entities that exhausted every live backend and were answered no_backend.").Int(m.noBackend.Load)
	r.Counter("crshard_retry_budget_exhausted_total", "Requests, or batch and dataset reroute waves, shed mid-failover when the retry budget ran out, instead of hammering a degraded fleet.").Int(m.retryBudgetExhausted.Load)
	r.Counter("crshard_replica_forwards_total", "Live-entity deltas and invalidations that reached the replica.").Int(m.replicaForwards.Load)
	r.Counter("crshard_replica_forward_failures_total", "Replica forwards dropped after exhausting their budget; the replica's lag persists.").Int(m.replicaForwardFailures.Load)
	r.Counter("crshard_replica_failover_total", "Entity requests served by a non-primary backend, per operation.").
		Int(m.replicaFailoverGet.Load, "op", "get").
		Int(m.replicaFailoverUpsert.Load, "op", "upsert").
		Int(m.replicaFailoverDelete.Load, "op", "delete")
	r.Gauge("crshard_replica_pending", "Queued replication forwards not yet sent.").Int(func() int64 { return int64(pending()) })
	r.Counter("crshard_merge_seconds_total", "Time spent decoding, restamping and writing backend result lines into client responses.").
		Float(expo.Seconds(&m.batchMergeNs), "endpoint", "batch").
		Float(expo.Seconds(&m.datasetMergeNs), "endpoint", "dataset")
	r.Gauge("crshard_ring_backends", "Backends on the ring.").Int(func() int64 { return int64(ring.Backends()) })
	r.Gauge("crshard_ring_vnodes", "Virtual nodes on the ring.").Int(func() int64 { return int64(ring.VNodes()) })
	share := r.Gauge("crshard_ring_share", "Each backend's arc fraction of the ring.")
	up := r.Gauge("crshard_backend_up", "1 while the backend is on the live set.")
	sent := r.Counter("crshard_backend_requests_total", "Sub-requests sent to the backend.")
	failed := r.Counter("crshard_backend_errors_total", "Transport failures talking to the backend.")
	retried := r.Counter("crshard_backend_retries_total", "Work the backend absorbed from a failed sibling: keyed request attempts and rerouted batch or dataset entities.")
	for i, b := range backends {
		share.Float(func() float64 { return ring.Share(i) }, "backend", b.url)
		up.Int(func() int64 {
			if b.up.Load() {
				return 1
			}
			return 0
		}, "backend", b.url)
		sent.Int(b.requests.Load, "backend", b.url)
		failed.Int(b.errors.Load, "backend", b.url)
		retried.Int(b.retries.Load, "backend", b.url)
	}
	return requests
}

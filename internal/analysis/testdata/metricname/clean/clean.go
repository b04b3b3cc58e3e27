// Package clean declares metric families that follow every convention:
// constant crserve_/crshard_ names in snake_case, _total counters and
// plain gauges, all through the registry.
package clean

import (
	"fmt"

	"fixtures/metricname/expo"
)

const liveSessions = "crshard_live_sessions"

func register(r *expo.Registry) {
	r.Counter("crserve_requests_total", "HTTP requests served, per endpoint.")
	r.Gauge(liveSessions, "Sessions held.")
	r.Counter("crshard_retry_budget_exhausted_total", "")
	r.Counter("crshard_replica_failover_total", "")
	r.Gauge("crshard_replica_pending", "")
	r.Counter("crserve_live_snapshot_restored_total", "")
}

// Prose about the format that is not a TYPE line stays out of scope.
var note = fmt.Sprintf("scrape %s for the TYPE of each family", "/metrics")

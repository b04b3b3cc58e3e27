// Package bad seeds metricname violations: computed names, wrong
// prefixes, counters without _total, gauges with it, and a hand-written
// exposition renderer.
package bad

import (
	"fmt"
	"io"

	"fixtures/metricname/expo"
)

func register(r *expo.Registry, shard string) {
	r.Counter("crserve_requests", "")                // want `counter "crserve_requests" must end in _total`
	r.Counter("resolve_errors_total", "")            // want `metric "resolve_errors_total" violates the naming convention`
	r.Gauge("crshard_queue_depth_total", "")         // want `gauge "crshard_queue_depth_total" must not end in _total`
	r.Counter("crserve_Sessions_total", "")          // want `metric "crserve_Sessions_total" violates the naming convention`
	r.Counter("crshard_"+shard+"_total", "")         // want `metric name passed to Counter must be a constant string`
	r.Gauge(fmt.Sprintf("crshard_%s_up", shard), "") // want `metric name passed to Gauge must be a constant string`
}

func write(w io.Writer, requests int) {
	fmt.Fprintf(w, "# TYPE crserve_orphan_total counter\n") // want `exposition TYPE line written outside the expo registry`
	fmt.Fprintf(w, "crserve_orphan_total %d\n", requests)
}

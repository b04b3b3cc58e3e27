// Command perfbench is the fleet benchmark: it builds crserve and crshard
// from the checkout, starts one crshard in front of two crserve backends on
// loopback, replays seeded traffic of one workload against the fleet, checks
// every output against the in-process library, and prints the metrics as
// one JSON object on the last line of standard output.
//
// Usage (from the root of a checkout):
//
//	bash perfbench/run.sh --workload bulk|interactive|cdc --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer ledger: counters from the fleet's /metrics and
// /proc, plus spans from a traced in-process fleet and an engine replay.
// See perfbench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

type workload interface {
	// generate pre-builds every request of a run from the seed.
	generate(seed int64, seconds float64) error
	// warm runs after the fleet is ready; it is part of set-up.
	warm(ctx context.Context, client *http.Client, url string) error
	// run drives the timed window, marking meter at every slot edge.
	run(ctx context.Context, client *http.Client, url string, window time.Duration, meter *slotMeter) *outcome
	// metrics fills the workload's latency metrics of a finished outcome
	// from the samples of its kept slots.
	metrics(o *outcome)
	// cpuLedger reports whether the ledger counts backend time as CPU
	// time rather than wall time (see buildLedger).
	cpuLedger() bool
	// replay re-runs the engine calls behind the outcome's requests
	// in-process, recording one span per layer call, for at most budget.
	replay(o *outcome, t *tracer, budget time.Duration) int
}

// outcome is one timed window's record.
type outcome struct {
	lat       *latencies
	late      []float64 // open-loop dispatcher lateness, ms
	wall      time.Duration
	ops       int // completed operations: entities, conversations or upserts
	slots     []slotStat
	keep      []bool // the slots the end-to-end figures are taken over (keptSlots)
	requests  int    // client requests sent
	batchJobs int
	notes     []string
	extra     map[string]float64
	// fetch, when set, reads from the fleet what check needs; check
	// compares the outputs in-process and needs no fleet.
	fetch   func()
	check   func() (attempted, failed int)
	records any // workload-specific request record, for the replay
	tailN   int // samples behind the tail percentile

	e2e   map[string]float64
	named []namedMetric
}

type namedMetric struct {
	name, unit string
	value      float64
}

func (o *outcome) set(k string, v float64) {
	if o.e2e == nil {
		o.e2e = make(map[string]float64)
	}
	o.e2e[k] = v
}

// The tail percentile every workload reports. It must leave at least ten
// samples beyond it in the kept slots of every workload: the interactive
// workload answers about 700 rounds in 20 s at its offered rate and keeps
// about 350, about 17 beyond a p95, with a margin for runs whose steal
// filter drops slots.
const (
	tailQ   = 0.95
	tailKey = "p95_ms"
)

func tailName(op string) string { return op + "_p95_ms" }

func (o *outcome) setTail(xs []float64) {
	o.tailN = len(xs)
	o.set(tailKey, quantile(xs, tailQ))
}

// finish cuts the outcome into the meter's slots, picks the ones to keep
// and fills the end-to-end metrics over them.
func (o *outcome) finish(w workload, meter *slotMeter) {
	o.slots = meter.slots(o.lat.ops)
	o.keep = keptSlots(o.slots)
	wall, cpu, ops, _ := slotTotals(o.slots, o.keep)
	o.set("throughput_per_s", ratio(float64(ops), wall.Seconds()))
	o.set("cpu_ms_per_op", ratio(1000*cpu, float64(ops)))
	w.metrics(o)
}

// stealLimit is the share of CPU time the hypervisor may give to other
// guests during the kept slots before a run is flagged as disturbed: on a
// shared 2-core VM, slots above it read up to twice the latency and 30%
// more CPU per operation.
const stealLimit = 0.05

// A --trace 0 run sets the fleet up at least minSetups times, and more
// until setupBudget is spent or maxSetups are done. It reports the median
// over the quiet set-ups and keeps the last fleet for the timed window.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 4 * time.Second
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "bulk, interactive or cdc")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "timed window length")
	trace := flag.Int("trace", 0, "1 reports the per-layer ledger instead of the end-to-end metrics")
	flag.Parse()

	var w workload
	switch *name {
	case "bulk":
		w = &bulk{}
	case "interactive":
		w = &interactive{}
	case "cdc":
		w = &cdc{}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want bulk, interactive or cdc)\n", *name)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A closed output pipe must not kill the benchmark before it has stopped
	// the fleet; writes fail instead.
	signal.Ignore(syscall.SIGPIPE)

	genStart := time.Now()
	if err := w.generate(*seed, *seconds); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: generate: %v\n", err)
		return 1
	}
	fmt.Printf("inputs generated in %.2fs\n", time.Since(genStart).Seconds())
	serveBin, shardBin, err := buildFleet()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	client := newClient()
	var setups []float64
	var setupSlots []slotStat
	var f *fleet
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	lo, hi := minSetups, maxSetups
	if *trace != 0 {
		lo, hi = 1, 1 // the traced run reports no set-up time
	}
	var spent time.Duration
	for i := 0; i < hi && (i < lo || spent < setupBudget); i++ {
		if f != nil {
			f.stop()
			client.CloseIdleConnections()
		}
		sm := newSlotMeter()
		sm.mark()
		t0 := time.Now()
		// A process that dies before it is ready (a port taken in the
		// meantime) gets the whole fleet restarted, twice at most.
		for attempt := 0; ; attempt++ {
			if f, err = startFleet(serveBin, shardBin); err == nil {
				break
			}
			if attempt == 2 {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				return 1
			}
			fmt.Printf("note: fleet start failed, retrying: %v\n", err)
		}
		if err := w.warm(ctx, client, f.coord.url); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: warm-up: %v\n", err)
			return 1
		}
		d := time.Since(t0)
		sm.mark()
		spent += d
		setups = append(setups, d.Seconds())
		setupSlots = append(setupSlots, sm.slots(nil)...)
	}

	window := time.Duration(*seconds * float64(time.Second))
	if *trace != 0 {
		window /= 2
	}
	o, m, err := measure(ctx, w, f, client, window)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if o.fetch != nil {
		o.fetch()
	}
	attempted, failed := o.check()
	f.stop()
	f = nil
	client.CloseIdleConnections()

	var metrics map[string]metricOut
	if *trace == 0 {
		o.set("setup_s", quietMedian(setups, setupSlots))
		o.set("requests_per_op", ratio(float64(o.requests), float64(o.ops)))
		o.set("rss_mb", m.rssMB)
		metrics = endToEnd(o)
		printSummary(*name, o, m, ratio(float64(failed), float64(attempted)))
		fmt.Printf("  set-ups: %s s\n", joinFloats(setups))
		if float64(o.tailN)*(1-tailQ) < 10 {
			fmt.Printf("note: only %d samples: too few for %s\n", o.tailN, tailKey)
		}
	} else {
		layers, a, fl, err := traceRun(ctx, w, window, o, m)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: trace: %v\n", err)
			return 1
		}
		// The traced window's outputs are checked like the untraced one's.
		attempted += a
		failed += fl
		layers["driver.error_rate"] = metricOut{Value: ratio(float64(failed), float64(attempted)), Unit: "ratio"}
		metrics = layers
	}
	printSlots(o)
	if late := quantile(o.late, 0.99); late > lateLimitMs {
		fmt.Printf("FLAG: open-loop generator fell behind schedule (late p99 %.3f ms > %.1f ms); latencies of this run are not valid\n", late, lateLimitMs)
	}
	for _, n := range o.notes {
		fmt.Println("note:", n)
	}
	res := map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fleetMeasure holds what the out-of-band probes saw over the window.
type fleetMeasure struct {
	before, after []probe
	probeWall     time.Duration
	coresBusy     float64
	rssMB         float64
	// stealRatio is the share of the machine's CPU time the hypervisor
	// gave to other guests during the window; latencies rise with it.
	stealRatio float64
}

// measure runs the timed window against a fleet, bracketed by probes of
// every process's /metrics and /proc CPU time.
func measure(ctx context.Context, w workload, f *fleet, client *http.Client, window time.Duration) (*outcome, *fleetMeasure, error) {
	m := &fleetMeasure{}
	var err error
	if m.before, err = f.probeAll(ctx, client); err != nil {
		return nil, nil, err
	}
	total0, steal0, err := hostCPU()
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	meter := newSlotMeter(f.pids()...)
	o := w.run(ctx, client, f.coord.url, window, meter)
	if meter.err != nil {
		return nil, nil, meter.err
	}
	if m.after, err = f.probeAll(ctx, client); err != nil {
		return nil, nil, err
	}
	total1, steal1, err := hostCPU()
	if err != nil {
		return nil, nil, err
	}
	m.stealRatio = ratio(steal1-steal0, total1-total0)
	m.probeWall = time.Since(t0)
	if m.rssMB, err = f.rssMB(); err != nil {
		return nil, nil, err
	}
	cpu := 0.0
	for i := range m.after {
		cpu += m.after[i].cpuSec - m.before[i].cpuSec
	}
	m.coresBusy = ratio(cpu, m.probeWall.Seconds())
	o.finish(w, meter)
	return o, m, nil
}

// e2eUnits lists the end-to-end metrics of a --trace 0 run, as declared in
// BENCHMARK.json.
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"throughput_per_s": "1/s",
	"p50_ms":           "ms",
	tailKey:            "ms",
	"aux_p50_ms":       "ms",
	"requests_per_op":  "count",
	"cpu_ms_per_op":    "ms",
	"rss_mb":           "MB",
}

func endToEnd(o *outcome) map[string]metricOut {
	out := make(map[string]metricOut, len(e2eUnits))
	for k, unit := range e2eUnits {
		out[k] = metricOut{Value: o.e2e[k], Unit: unit}
	}
	return out
}

// printSummary prints every end-to-end metric under its workload-specific
// name, one per line, ahead of the JSON result.
func printSummary(workload string, o *outcome, m *fleetMeasure, errorRate float64) {
	named := append([]namedMetric{{"setup_s", "s", o.e2e["setup_s"]}}, o.named...)
	named = append(named,
		namedMetric{"cpu_ms_per_op", "ms", o.e2e["cpu_ms_per_op"]},
		namedMetric{"rss_mb", "MB", o.e2e["rss_mb"]},
		namedMetric{"error_rate", "ratio", errorRate},
		namedMetric{"requests_per_op", "count", o.e2e["requests_per_op"]},
		namedMetric{"driver.late_p99_ms", "ms", quantile(o.late, 0.99)},
		namedMetric{"host.steal_ratio", "ratio", m.stealRatio},
	)
	fmt.Printf("workload %s: %d operations in %.2fs\n", workload, o.ops, o.wall.Seconds())
	for _, n := range named {
		fmt.Printf("  %-24s %14.4f %s\n", n.name, n.value, n.unit)
	}
	keys := make([]string, 0, len(o.e2e))
	for k := range o.e2e {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("  (reported as %s)\n", strings.Join(keys, ", "))
}

// printSlots prints how the window was cut and which slots count, and
// flags a run whose kept slots were still disturbed.
func printSlots(o *outcome) {
	_, _, _, steal := slotTotals(o.slots, o.keep)
	kept := 0
	mask := make([]byte, len(o.slots))
	var shares, walls, costs []float64
	for i, s := range o.slots {
		shares = append(shares, s.steal)
		walls = append(walls, s.wall.Seconds())
		costs = append(costs, 1000*ratio(s.cpuSec, float64(s.ops)))
		mask[i] = '.'
		if o.keep[i] {
			mask[i] = 'K'
			kept++
		}
	}
	fmt.Printf("slots: %d of %d kept: %s\n", kept, len(o.slots), mask)
	fmt.Printf("  steal share: %s\n  wall s:      %s\n  cpu ms/op:   %s\n", joinFloats(shares), joinFloats(walls), joinFloats(costs))
	if steal > stealLimit {
		fmt.Printf("FLAG: the host took %.1f%% of the CPU time even in the kept slots (> %.0f%%); this run's times are inflated\n", 100*steal, 100*stealLimit)
	}
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

package main

import "time"

// A run's timed window is cut into slots of equal offered work: a fixed
// number of scheduled operations in the open loops, one job in bulk. At
// each slot boundary the benchmark reads the host's CPU counters and the
// fleet's CPU time from /proc, so every slot knows its wall time, the
// fleet CPU it cost and the share of the machine's CPU time the hypervisor
// gave to other guests during it (its steal share).
//
// The end-to-end figures are taken over the kept slots only: the cheaper
// half, by fleet CPU time per operation, of the slots the hypervisor left
// alone. On a shared virtual machine the host disturbs a run in bursts of
// seconds. Steal shows some of them; others, where neighbouring guests
// contend for the same cores and caches, show only as a slot that needs a
// third more CPU time per operation and reads up to twice the latency.
// Noise of this kind only ever slows a slot, so the cheaper slots are the
// ones closest to the program's own cost (the argument for minimum-based
// estimates in Chen and Revels, "Robust benchmarking in noisy
// environments", 2016). A change to the program moves every slot alike, so
// it still shows.

// quietSteal is the steal share at or below which a slot always counts.
const quietSteal = 0.02

// boundary is one reading taken at a slot edge.
type boundary struct {
	at        time.Time
	hostTotal float64 // machine CPU ticks, all states
	hostSteal float64 // machine CPU ticks stolen by the hypervisor
	fleetCPU  float64 // user+sys seconds of the metered processes
}

// slotMeter takes the readings at slot edges. The reading is a few reads of
// small /proc files: it runs on the load generator between operations,
// never inside a request.
type slotMeter struct {
	pids  []int
	marks []boundary
	err   error // the first failed reading; the run is then invalid
}

func newSlotMeter(pids ...int) *slotMeter { return &slotMeter{pids: pids} }

// mark closes the current slot and opens the next.
func (m *slotMeter) mark() {
	b := boundary{at: time.Now()}
	var err error
	if b.hostTotal, b.hostSteal, err = hostCPU(); err == nil {
		for _, pid := range m.pids {
			var s float64
			if s, err = cpuSeconds(pid); err != nil {
				break
			}
			b.fleetCPU += s
		}
	}
	if err != nil && m.err == nil {
		m.err = err
	}
	m.marks = append(m.marks, b)
}

// slotStat is what one slot cost and produced.
type slotStat struct {
	wall   time.Duration
	cpuSec float64
	steal  float64
	ops    int
}

// slots pairs consecutive readings into slots and attaches each slot's
// completed operations.
func (m *slotMeter) slots(ops []int) []slotStat {
	if len(m.marks) < 2 {
		return nil
	}
	out := make([]slotStat, len(m.marks)-1)
	for i := range out {
		a, b := m.marks[i], m.marks[i+1]
		out[i] = slotStat{
			wall:   b.at.Sub(a.at),
			cpuSec: b.fleetCPU - a.fleetCPU,
			steal:  ratio(b.hostSteal-a.hostSteal, b.hostTotal-a.hostTotal),
		}
		if i < len(ops) {
			out[i].ops = ops[i]
		}
	}
	return out
}

// keptSlots picks the slots the figures are taken over: of the quiet slots
// (see quietSlots), those whose fleet CPU time per operation is at most
// their median. Every slot of a workload offers the same mix of work, so
// their costs differ by how much the host disturbed them.
func keptSlots(slots []slotStat) []bool {
	keep := quietSlots(slots)
	var costs []float64
	for i, s := range slots {
		if keep[i] && s.ops > 0 {
			costs = append(costs, s.cpuSec/float64(s.ops))
		}
	}
	limit := median(costs)
	for i, s := range slots {
		keep[i] = keep[i] && s.ops > 0 && s.cpuSec/float64(s.ops) <= limit
	}
	return keep
}

// quietSlots picks the slots the hypervisor left alone: every slot whose
// steal share is at most quietSteal or at most the median slot's. A quiet
// run keeps all its slots; a disturbed one keeps its quieter half.
func quietSlots(slots []slotStat) []bool {
	steal := make([]float64, len(slots))
	for i, s := range slots {
		steal[i] = s.steal
	}
	limit := median(steal)
	if limit < quietSteal {
		limit = quietSteal
	}
	keep := make([]bool, len(slots))
	for i, s := range steal {
		keep[i] = s <= limit
	}
	return keep
}

// allSlots keeps every slot.
func allSlots(slots []slotStat) []bool {
	keep := make([]bool, len(slots))
	for i := range keep {
		keep[i] = true
	}
	return keep
}

// slotTotals sums the kept slots.
func slotTotals(slots []slotStat, keep []bool) (wall time.Duration, cpuSec float64, ops int, steal float64) {
	n := 0
	for i, s := range slots {
		if !keep[i] {
			continue
		}
		wall += s.wall
		cpuSec += s.cpuSec
		ops += s.ops
		steal += s.steal
		n++
	}
	return wall, cpuSec, ops, ratio(steal, float64(n))
}

// quietMedian is the median of xs over the readings whose steal share
// passes quietSlots' rule: the set-up time of a run is the median of
// several set-ups, each read like a slot.
func quietMedian(xs []float64, slots []slotStat) float64 {
	keep := quietSlots(slots)
	var kept []float64
	for i, x := range xs {
		if keep[i] {
			kept = append(kept, x)
		}
	}
	return median(kept)
}

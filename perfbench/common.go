package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"conflictres"
	"conflictres/internal/datagen"
	"conflictres/internal/relation"
)

// personConfig is the Person generator with the shrunken constraint pools
// the session and live benchmarks use: ACPool 24 and 6×8 status and job
// chains, giving 89 currency constraints and 24 CFDs.
func personConfig(entities, minT, maxT int, seed int64) datagen.PersonConfig {
	return datagen.PersonConfig{
		Entities: entities, MinTuples: minT, MaxTuples: maxT, Seed: seed,
		ACPool: 24, StatusChains: 6, StatusChainLen: 8,
		JobChains: 6, JobChainLen: 8,
	}
}

// rulesWire is the rule-set part of every request body, in the server's
// wire shape.
type rulesWire struct {
	Schema   []string `json:"schema"`
	Currency []string `json:"currency,omitempty"`
	CFDs     []string `json:"cfds,omitempty"`
	Trust    []string `json:"trust,omitempty"`
}

func rulesOf(ds *datagen.Dataset, withTrust bool) rulesWire {
	rw := rulesWire{Schema: ds.Schema.Names()}
	for _, c := range ds.Sigma {
		rw.Currency = append(rw.Currency, c.Format(ds.Schema))
	}
	for _, c := range ds.Gamma {
		rw.CFDs = append(rw.CFDs, c.Format(ds.Schema))
	}
	if withTrust {
		rw.Trust = ds.Trust
	}
	return rw
}

// compile builds the in-process rule set the outputs are checked against.
func (rw rulesWire) compile() (*conflictres.RuleSet, error) {
	sch, err := conflictres.NewSchema(rw.Schema...)
	if err != nil {
		return nil, err
	}
	return conflictres.CompileRulesTrust(sch, rw.Currency, rw.CFDs, rw.Trust)
}

func rowJSON(t relation.Tuple) []any {
	out := make([]any, len(t))
	for i, v := range t {
		out[i] = v.AsJSON()
	}
	return out
}

// rowsOf copies an instance's tuples and source tags.
func rowsOf(in *relation.Instance) (rows []relation.Tuple, sources []string) {
	for _, id := range in.TupleIDs() {
		rows = append(rows, in.Tuple(id).Clone())
		sources = append(sources, in.Source(id))
	}
	return rows, sources
}

// bindRows builds the specification the server would bind from the same
// rows.
func bindRows(rs *conflictres.RuleSet, rows []relation.Tuple, sources []string) (*conflictres.Spec, error) {
	in := conflictres.NewInstance(rs.Schema())
	for i, r := range rows {
		src := ""
		if sources != nil {
			src = sources[i]
		}
		if _, err := in.AddSourced(r.Clone(), src); err != nil {
			return nil, err
		}
	}
	return conflictres.NewSpecFromRules(in, rs)
}

// canonResolved renders a resolved map in the wire's JSON form so that an
// in-process result and a decoded response compare byte for byte.
func canonResolved(sch *conflictres.Schema, m map[conflictres.Attr]conflictres.Value) string {
	out := make(map[string]any, len(m))
	for a, v := range m {
		out[sch.Name(a)] = v.AsJSON()
	}
	b, _ := json.Marshal(out) // scalar values always marshal
	return string(b)
}

func canonTuple(t conflictres.Tuple) string {
	b, _ := json.Marshal(rowJSON(t)) // scalar values always marshal
	return string(b)
}

// canonRaw re-marshals a decoded JSON value so that key order and number
// spelling match canonResolved/canonTuple.
func canonRaw(raw json.RawMessage) string {
	if len(raw) == 0 || string(raw) == "null" {
		return ""
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return "!" + string(raw)
	}
	b, _ := json.Marshal(v) // just decoded
	return string(b)
}

func emptyCanon(s string) string {
	if s == "{}" || s == "[]" {
		return ""
	}
	return s
}

// newClient returns the benchmark's HTTP client: at most two connections
// to any host, matching the two load goroutines on a 2-core box.
func newClient() *http.Client {
	tr := &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
		IdleConnTimeout:     90 * time.Second,
	}
	return &http.Client{Transport: tr, Timeout: 60 * time.Second}
}

// doJSON sends one request and returns the status and body.
func doJSON(ctx context.Context, client *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// latencies collects latency samples in milliseconds and completed
// operations, both per slot.
type latencies struct {
	mu  sync.Mutex
	m   map[string][][]float64 // kind -> slot -> samples
	ops []int                  // slot -> completed operations
}

func newLatencies() *latencies { return &latencies{m: make(map[string][][]float64)} }

func (l *latencies) add(slot int, kind string, d time.Duration) {
	l.mu.Lock()
	s := l.m[kind]
	for len(s) <= slot {
		s = append(s, nil)
	}
	s[slot] = append(s[slot], float64(d)/float64(time.Millisecond))
	l.m[kind] = s
	l.mu.Unlock()
}

// done counts n completed operations in slot.
func (l *latencies) done(slot, n int) {
	l.mu.Lock()
	for len(l.ops) <= slot {
		l.ops = append(l.ops, 0)
	}
	l.ops[slot] += n
	l.mu.Unlock()
}

// get returns the samples of kind in the kept slots.
func (l *latencies) get(kind string, keep []bool) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for slot, xs := range l.m[kind] {
		if slot < len(keep) && keep[slot] {
			out = append(out, xs...)
		}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// openLoop runs jobs at fixed offsets from start on at most workers
// goroutines, one connection each. A job is timed from its due time, so
// the wait for a free worker counts in its latency. Every perSlot jobs
// make a slot: the dispatcher marks the meter as the first job of each
// slot falls due, and once more after the last job has ended. The returned
// lateness samples, in milliseconds, are how far past its due time each
// job was actually sent: how late the generator ran.
func openLoop(ctx context.Context, start time.Time, dues []time.Duration, perSlot int, meter *slotMeter, workers int, do func(i, slot int, due time.Time)) []float64 {
	type job struct {
		i   int
		due time.Time
	}
	queue := make(chan job, len(dues)) // sized to every job: dispatch never blocks
	var mu sync.Mutex
	late := make([]float64, 0, len(dues))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				if ctx.Err() != nil {
					continue
				}
				l := float64(time.Since(j.due)) / float64(time.Millisecond)
				mu.Lock()
				late = append(late, l)
				mu.Unlock()
				do(j.i, j.i/perSlot, j.due)
			}
		}()
	}
	timer := time.NewTimer(0)
	<-timer.C
	for i, off := range dues {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		if i%perSlot == 0 {
			meter.mark()
		}
		queue <- job{i: i, due: due}
	}
	close(queue)
	wg.Wait()
	meter.mark()
	return late
}

// slotJobs rounds a window's job count down to whole slots (one slot at
// least) and caps it at the jobs generated.
func slotJobs(window time.Duration, rate float64, perSlot, generated int) int {
	n := int(window.Seconds()*rate) / perSlot * perSlot
	if n < perSlot {
		n = perSlot
	}
	if n > generated {
		n = generated
	}
	return n
}

// parallel runs fn(i) for i in [0, n) on two goroutines, striped, and
// returns how many calls returned false.
func parallel(n int, fn func(i int) bool) int {
	const workers = 2
	var failed [workers]int
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < n; i += workers {
				if !fn(i) {
					failed[k]++
				}
			}
		}(k)
	}
	wg.Wait()
	return failed[0] + failed[1]
}

// lateLimitMs is how late (p99) the generator may send before a run is
// flagged as having fallen behind its schedule: past it, the fleet is no
// longer seeing the offered rate and the run's latencies are not valid.
const lateLimitMs = 50.0

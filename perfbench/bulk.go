package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"time"

	"conflictres"
	"conflictres/internal/datagen"
	"conflictres/internal/relation"
)

// bulk is the closed-loop batch workload: one client keeps one
// POST /v1/resolve/batch job of bulkJobSize sourced Person entities in
// flight. Every entity is distinct, so the result cache misses by
// construction.
type bulk struct {
	rules rulesWire
	rs    *conflictres.RuleSet
	jobs  []*bulkJob
	warmJ *bulkJob
	next  int // first job not yet sent; jobs are never re-sent
}

const (
	bulkJobSize = 128
	// bulkMaxRate bounds the entities/s the pre-generated jobs can feed; a
	// run that exhausts them ends early and says so.
	bulkMaxRate = 1000
)

type bulkEntity struct {
	id      string
	rows    []relation.Tuple
	sources []string
}

type bulkJob struct {
	entities []bulkEntity
	body     []byte
}

// bulkResult is one recorded job: its result lines and timings.
type bulkResult struct {
	job   *bulkJob
	lines [][]byte
	err   error
}

// bulkSizes is the tuple-count mix of every job: Zipf (s = 1.5, as
// datagen's SkewZipf) over 2–40 tuples, rounded to whole entities by
// largest remainder. Every job carries the same mix, so a run's cost does
// not hinge on how many of the rare large entities its seed happens to
// draw.
func bulkSizes(n int) []int {
	const lo, hi, s = 2, 40, 1.5
	w := make([]float64, hi-lo+1)
	total := 0.0
	for k := range w {
		w[k] = math.Pow(1+float64(k), -s)
		total += w[k]
	}
	counts := make([]int, len(w))
	type rem struct {
		k int
		r float64
	}
	rems := make([]rem, len(w))
	left := n
	for k := range w {
		exact := float64(n) * w[k] / total
		counts[k] = int(exact)
		left -= counts[k]
		rems[k] = rem{k, exact - float64(counts[k])}
	}
	sort.Slice(rems, func(i, j int) bool { return rems[i].r > rems[j].r })
	for i := 0; i < left; i++ {
		counts[rems[i].k]++
	}
	var sizes []int
	for k, c := range counts {
		for i := 0; i < c; i++ {
			sizes = append(sizes, lo+k)
		}
	}
	return sizes
}

func (w *bulk) generate(seed int64, seconds float64) error {
	n := int(seconds*bulkMaxRate)/bulkJobSize + 2
	for j := 0; j <= n; j++ {
		size := bulkJobSize
		if j == n {
			size = 32 // the warm-up job
		}
		job, err := w.genJob(seed, j, bulkSizes(size))
		if err != nil {
			return err
		}
		if j == n {
			w.warmJ = job
		} else {
			w.jobs = append(w.jobs, job)
		}
	}
	return nil
}

// genJob draws one job's entities, one datagen call per distinct size,
// tags their tuples with sources and shuffles them.
func (w *bulk) genJob(seed int64, j int, sizes []int) (*bulkJob, error) {
	bySize := make(map[int]int)
	for _, sz := range sizes {
		bySize[sz]++
	}
	var ents []*datagen.Entity
	var sch *relation.Schema
	for sz := 2; sz <= 40; sz++ {
		if bySize[sz] == 0 {
			continue
		}
		sub := seed*1_000_003 + int64(j)*64 + int64(sz)
		ds := datagen.Person(personConfig(bySize[sz], sz, sz, sub))
		ds.AssignSources(4, sub)
		if w.rs == nil {
			w.rules = rulesOf(ds, true)
			rs, err := w.rules.compile()
			if err != nil {
				return nil, err
			}
			w.rs = rs
		}
		sch = ds.Schema
		ents = append(ents, ds.Entities...)
	}
	// The same fixed interleaving of sizes in every job and for every
	// seed: where the large entities fall decides how long a job's tail
	// runs on one core, and that should not differ between runs.
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(ents), func(a, b int) { ents[a], ents[b] = ents[b], ents[a] })

	job := &bulkJob{}
	var buf bytes.Buffer
	hdr, _ := json.Marshal(w.rules) // string slices always marshal
	buf.Write(hdr)
	buf.WriteByte('\n')
	nameAttr := sch.MustAttr("name")
	for i, e := range ents {
		rows, sources := rowsOf(e.Spec.TI.Inst)
		// A name unique to the seed, job and slot keeps every entity
		// distinct across the run even where the generator repeats a
		// history.
		name := relation.String(fmt.Sprintf("b%d_%d_%d", seed, j, i))
		for _, r := range rows {
			r[nameAttr] = name
		}
		be := bulkEntity{id: fmt.Sprintf("j%d-%d", j, i), rows: rows, sources: sources}
		job.entities = append(job.entities, be)
		tuples := make([][]any, len(rows))
		for k, r := range rows {
			tuples[k] = rowJSON(r)
		}
		line, err := json.Marshal(map[string]any{"id": be.id, "tuples": tuples, "sources": sources})
		if err != nil {
			return nil, err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	job.body = buf.Bytes()
	return job, nil
}

// send posts one batch job and records every result line as it streams in;
// its latencies go to slot.
func (w *bulk) send(ctx context.Context, client *http.Client, url string, job *bulkJob, lat *latencies, slot int) *bulkResult {
	res := &bulkResult{job: job}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/resolve/batch", bytes.NewReader(job.body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := client.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		res.err = fmt.Errorf("batch status %d", resp.StatusCode)
		return res
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 8<<20)
	for sc.Scan() {
		if lat != nil {
			lat.add(slot, "entity", time.Since(start))
		}
		res.lines = append(res.lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		res.err = err
	}
	if lat != nil {
		lat.add(slot, "job", time.Since(start))
	}
	return res
}

func (w *bulk) warm(ctx context.Context, client *http.Client, url string) error {
	res := w.send(ctx, client, url, w.warmJ, nil, 0)
	if res.err != nil {
		return res.err
	}
	if len(res.lines) != len(w.warmJ.entities) {
		return fmt.Errorf("warm-up batch: %d lines for %d entities", len(res.lines), len(w.warmJ.entities))
	}
	return nil
}

// run keeps one job in flight until the window closes, then lets the last
// job finish. Each job is a slot; throughput is taken over the kept jobs.
func (w *bulk) run(ctx context.Context, client *http.Client, url string, window time.Duration, meter *slotMeter) *outcome {
	out := &outcome{lat: newLatencies()}
	start := time.Now()
	var results []*bulkResult
	for time.Since(start) < window && ctx.Err() == nil {
		if w.next == len(w.jobs) {
			out.notes = append(out.notes, "bulk: pre-generated jobs exhausted before the window closed")
			break
		}
		job := w.jobs[w.next]
		w.next++
		meter.mark()
		slot := len(results)
		results = append(results, w.send(ctx, client, url, job, out.lat, slot))
		out.lat.done(slot, len(job.entities))
		out.requests++
	}
	meter.mark()
	out.wall = time.Since(start)
	out.check = func() (int, int) { return w.verify(results) }
	for _, r := range results {
		out.ops += len(r.job.entities)
	}
	out.batchJobs = len(results)
	out.records = results
	return out
}

type resultLine struct {
	ID       string          `json:"id"`
	Index    *int            `json:"index"`
	Valid    bool            `json:"valid"`
	Resolved json.RawMessage `json:"resolved"`
	Tuple    json.RawMessage `json:"tuple"`
	Error    *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// verify checks every recorded result line against RuleSet.Resolve of the
// same entity in-process. It returns (attempted, failed) entities.
func (w *bulk) verify(results []*bulkResult) (int, int) {
	type item struct {
		e    bulkEntity
		line *resultLine
	}
	var items []item
	attempted, failed := 0, 0
	for _, r := range results {
		attempted += len(r.job.entities)
		got := make(map[int]*resultLine, len(r.lines))
		for _, l := range r.lines {
			var rl resultLine
			if err := json.Unmarshal(l, &rl); err != nil || rl.Index == nil {
				continue
			}
			got[*rl.Index] = &rl
		}
		for i, e := range r.job.entities {
			rl := got[i]
			if r.err != nil || rl == nil || rl.Error != nil || rl.ID != e.id {
				failed++
				continue
			}
			items = append(items, item{e: e, line: rl})
		}
	}
	failed += parallel(len(items), func(i int) bool { return w.matches(items[i].e, items[i].line) })
	return attempted, failed
}

func (w *bulk) matches(e bulkEntity, rl *resultLine) bool {
	spec, err := bindRows(w.rs, e.rows, e.sources)
	if err != nil {
		return false
	}
	res, err := w.rs.Resolve(spec, nil)
	if err != nil || res.Valid != rl.Valid {
		return false
	}
	if !res.Valid {
		return true
	}
	return emptyCanon(canonResolved(w.rs.Schema(), res.Resolved)) == emptyCanon(canonRaw(rl.Resolved)) &&
		canonTuple(res.Tuple) == canonRaw(rl.Tuple)
}

func (w *bulk) metrics(o *outcome) {
	ent := o.lat.get("entity", o.keep)
	o.set("p50_ms", median(ent))
	o.setTail(ent)
	o.set("aux_p50_ms", median(o.lat.get("job", o.keep)))
	o.named = append(o.named,
		namedMetric{"entities_per_s", "1/s", o.e2e["throughput_per_s"]},
		namedMetric{"entity_result_p50_ms", "ms", o.e2e["p50_ms"]},
		namedMetric{"job_p50_ms", "ms", o.e2e["aux_p50_ms"]},
	)
}

func (w *bulk) cpuLedger() bool { return true }

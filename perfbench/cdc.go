package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"conflictres"
	"conflictres/internal/datagen"
	"conflictres/internal/relation"
)

// cdc is the open-loop change-data-capture workload: single-row upserts
// over cdcKeys live entities at a fixed rate, with reads of recently
// written keys interleaved. Keys are created with their base rows during
// set-up. A key's next operation waits for its previous reply.
type cdc struct {
	rules rulesWire
	rs    *conflictres.RuleSet
	keys  []*cdcKey
	ops   []cdcOp
	rate  float64 // upserts per second

	// acked counts the deltas each key has acknowledged, in order; guarded
	// by the key's lock during the window.
	locks []sync.Mutex
}

type cdcKey struct {
	name  string
	base  []relation.Tuple
	body  []byte // the create upsert
	acked []relation.Tuple
}

// cdcOp is one scheduled operation: an upsert of row on key, or a read.
type cdcOp struct {
	key  int
	read bool
	row  relation.Tuple
	body []byte
}

const (
	// cdcKeys stays under crserve's 512 live-entity cap on each backend
	// (each backend holds its own keys plus the replicas of the other's),
	// so nothing is evicted.
	cdcKeys = 96
	// cdcRate is the offered upsert rate, a fifth of the 180/s the fleet
	// sustained on a 2-core box, for the reason given at interactiveRate:
	// every tenth delta rebuilds on the primary and again on the replica,
	// and at 60/s those pairs queued behind each other whenever the host
	// took CPU time, doubling the p98.
	cdcRate = 36.0
	// cdcReadEvery interleaves one read after every cdcReadEvery upserts.
	cdcReadEvery = 3
	// cdcRebuildEvery: one delta in this many carries a fresh AC value (a
	// CFD left-hand side), which forces a skeleton rebuild.
	cdcRebuildEvery = 10
	// cdcSlot is the number of operations in a slot: 2.5 s at the offered
	// rate, three turns of the pattern of reads and rebuilds.
	cdcSlot = 120
)

func (w *cdc) upsertBody(rows []relation.Tuple) []byte {
	wire := make([][]any, len(rows))
	for i, r := range rows {
		wire[i] = rowJSON(r)
	}
	b, _ := json.Marshal(map[string]any{ // string slices and scalars always marshal
		"schema": w.rules.Schema, "currency": w.rules.Currency, "cfds": w.rules.CFDs,
		"rows": wire,
	})
	return b
}

func (w *cdc) generate(seed int64, seconds float64) error {
	w.rate = cdcRate
	// Base entities of 3–6 tuples, the same number of each size.
	var ents []*datagen.Entity
	var sch *relation.Schema
	for size := 3; size <= 6; size++ {
		ds := datagen.Person(personConfig(cdcKeys/4, size, size, seed*1_000_003+int64(size)))
		if w.rs == nil {
			w.rules = rulesOf(ds, false)
			rs, err := w.rules.compile()
			if err != nil {
				return err
			}
			w.rs = rs
		}
		sch = ds.Schema
		ents = append(ents, ds.Entities...)
	}
	nameAttr, kidsAttr, acAttr := sch.MustAttr("name"), sch.MustAttr("kids"), sch.MustAttr("AC")
	for i, e := range ents {
		rows, _ := rowsOf(e.Spec.TI.Inst)
		name := relation.String(fmt.Sprintf("d%d_%d", seed, i))
		for _, r := range rows {
			r[nameAttr] = name
		}
		k := &cdcKey{name: fmt.Sprintf("k%d-%03d", seed, i), base: rows}
		k.body = w.upsertBody(rows)
		w.keys = append(w.keys, k)
	}
	w.locks = make([]sync.Mutex, len(w.keys))

	rng := rand.New(rand.NewSource(seed))
	n := int(seconds * w.rate)
	kids := make([]int64, len(w.keys))
	perm := rng.Perm(len(w.keys))
	var recent []int
	for u := 0; u < n; u++ {
		if u%len(perm) == 0 && u > 0 {
			perm = rng.Perm(len(w.keys))
		}
		ki := perm[u%len(perm)]
		// Monotone delta: a copy of the key's first row with a kids count
		// above every count seen, which touches no CFD left-hand side.
		row := w.keys[ki].base[0].Clone()
		kids[ki]++
		row[kidsAttr] = relation.Int(100 + kids[ki])
		op := cdcOp{key: ki}
		if u%cdcRebuildEvery == cdcRebuildEvery-1 {
			row[acAttr] = relation.String(fmt.Sprintf("AX%d_%d", seed, u))
		}
		op.row = row
		op.body = w.upsertBody([]relation.Tuple{row})
		w.ops = append(w.ops, op)
		recent = append(recent, ki)
		if (u+1)%cdcReadEvery == 0 {
			// Read a key written a few operations ago.
			back := 1 + rng.Intn(len(recent))
			if back > 4 {
				back = 4
			}
			w.ops = append(w.ops, cdcOp{key: recent[len(recent)-back], read: true})
		}
	}
	return nil
}

type entityState struct {
	Key      string          `json:"key"`
	Rows     int             `json:"rows"`
	Valid    bool            `json:"valid"`
	Resolved json.RawMessage `json:"resolved"`
	Tuple    json.RawMessage `json:"tuple"`
	Extended *bool           `json:"extended"`
}

// warm creates every key with its base rows through the coordinator, two
// at a time, and waits until the coordinator has replicated them all.
func (w *cdc) warm(ctx context.Context, client *http.Client, url string) error {
	for _, k := range w.keys {
		k.acked = nil
	}
	errs := make(chan error, 2) // one per goroutine
	for g := 0; g < 2; g++ {
		go func(g int) {
			for i := g; i < len(w.keys); i += 2 {
				k := w.keys[i]
				status, data, err := doJSON(ctx, client, http.MethodPost, url+"/v1/entity/"+k.name+"/rows", k.body)
				if err != nil || status != http.StatusOK {
					errs <- fmt.Errorf("create %s: status %d: %v %s", k.name, status, err, data)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	return waitReplicated(ctx, client, url)
}

// waitReplicated polls the coordinator until no replica forward is pending.
func waitReplicated(ctx context.Context, client *http.Client, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		m, err := scrapeMetrics(ctx, client, url)
		if err != nil {
			return err
		}
		if m["crshard_replica_pending"] == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica forwards still pending after 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (w *cdc) run(ctx context.Context, client *http.Client, url string, window time.Duration, meter *slotMeter) *outcome {
	out := &outcome{lat: newLatencies()}
	opRate := w.rate * float64(cdcReadEvery+1) / cdcReadEvery
	n := slotJobs(window, opRate, cdcSlot, len(w.ops))
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(float64(i) / opRate * float64(time.Second))
	}
	var mu sync.Mutex
	failed, attempted, upserts, rebuildsSeen := 0, 0, 0, 0
	start := time.Now()
	out.late = openLoop(ctx, start, dues, cdcSlot, meter, 2, func(i, slot int, due time.Time) {
		op := w.ops[i]
		k := w.keys[op.key]
		w.locks[op.key].Lock()
		defer w.locks[op.key].Unlock()
		var status int
		var data []byte
		var err error
		if op.read {
			status, data, err = doJSON(ctx, client, http.MethodGet, url+"/v1/entity/"+k.name, nil)
			out.lat.add(slot, "read", time.Since(due))
		} else {
			status, data, err = doJSON(ctx, client, http.MethodPost, url+"/v1/entity/"+k.name+"/rows", op.body)
			out.lat.add(slot, "upsert", time.Since(due))
			out.lat.done(slot, 1)
		}
		ok := err == nil && status == http.StatusOK
		var st entityState
		if ok && json.Unmarshal(data, &st) != nil {
			ok = false
		}
		if ok && !op.read {
			k.acked = append(k.acked, op.row)
		}
		// Every answer must cover exactly the rows acknowledged so far.
		if ok && st.Rows != len(k.base)+len(k.acked) {
			ok = false
		}
		mu.Lock()
		attempted++
		if !ok {
			failed++
		}
		if !op.read {
			upserts++
			if st.Extended != nil && !*st.Extended {
				rebuildsSeen++
			}
		}
		mu.Unlock()
	})
	out.wall = time.Since(start)
	out.ops = upserts
	out.requests = attempted
	out.extra = map[string]float64{"rebuilds_seen": float64(rebuildsSeen)}
	out.records = n
	var finals []*entityState
	out.fetch = func() { finals = w.fetchFinal(ctx, client, url) }
	out.check = func() (int, int) {
		a, f := w.verify(finals)
		return attempted + a, failed + f
	}
	return out
}

// fetchFinal reads every key's final state; a key that could not be read
// is nil.
func (w *cdc) fetchFinal(ctx context.Context, client *http.Client, url string) []*entityState {
	out := make([]*entityState, len(w.keys))
	for i, k := range w.keys {
		status, data, err := doJSON(ctx, client, http.MethodGet, url+"/v1/entity/"+k.name, nil)
		var st entityState
		if err == nil && status == http.StatusOK && json.Unmarshal(data, &st) == nil {
			out[i] = &st
		}
	}
	return out
}

// verify compares every key's final state with from-scratch resolution of
// the rows it acknowledged.
func (w *cdc) verify(finals []*entityState) (int, int) {
	failed := 0
	sch := w.rs.Schema()
	for i, k := range w.keys {
		if i >= len(finals) || finals[i] == nil {
			failed++
			continue
		}
		rows := append(append([]relation.Tuple(nil), k.base...), k.acked...)
		spec, err := bindRows(w.rs, rows, nil)
		if err != nil {
			failed++
			continue
		}
		st := finals[i]
		res, err := conflictres.Resolve(spec, nil)
		if err != nil || res.Valid != st.Valid || st.Rows != len(rows) {
			failed++
			continue
		}
		if res.Valid && (emptyCanon(canonResolved(sch, res.Resolved)) != emptyCanon(canonRaw(st.Resolved)) ||
			canonTuple(res.Tuple) != canonRaw(st.Tuple)) {
			failed++
		}
	}
	return len(w.keys), failed
}

func (w *cdc) metrics(o *outcome) {
	up := o.lat.get("upsert", o.keep)
	o.set("p50_ms", median(up))
	o.setTail(up)
	o.set("aux_p50_ms", median(o.lat.get("read", o.keep)))
	o.named = append(o.named,
		namedMetric{"upserts_per_s", "1/s", o.e2e["throughput_per_s"]},
		namedMetric{"upsert_p50_ms", "ms", o.e2e["p50_ms"]},
		namedMetric{tailName("upsert"), "ms", o.e2e[tailKey]},
		namedMetric{"read_p50_ms", "ms", o.e2e["aux_p50_ms"]},
		namedMetric{"rebuild_deltas", "count", o.extra["rebuilds_seen"]},
		namedMetric{"offered_upserts_per_s", "1/s", w.rate},
	)
}

func (w *cdc) cpuLedger() bool { return false }

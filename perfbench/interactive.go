package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"time"

	"conflictres"
	"conflictres/internal/datagen"
	"conflictres/internal/relation"
)

// interactive is the open-loop session workload: conversations arrive at a
// fixed rate; each opens a session, answers one attribute per round — the
// first attribute the server suggested whose ground-truth value is known
// and not yet resolved, the paper's simulated user — and deletes the
// session when it completes or nothing answerable is suggested.
type interactive struct {
	rules  rulesWire
	rs     *conflictres.RuleSet
	convos []*convo
	warmC  []*convo
	rate   float64
}

// convo is one conversation's input: the entity and its ground truth.
type convo struct {
	id    string
	rows  []relation.Tuple
	truth relation.Tuple
	body  []byte
}

// convoRecord is what the fleet answered during one conversation.
type convoRecord struct {
	c       *convo
	states  []sessionState // create, then one per answer
	answers []map[string]relation.Value
	err     error
}

type sessionState struct {
	Session    string          `json:"session"`
	Valid      bool            `json:"valid"`
	Complete   bool            `json:"complete"`
	Resolved   json.RawMessage `json:"resolved"`
	Suggestion *struct {
		Attrs []string `json:"attrs"`
	} `json:"suggestion"`
}

const (
	// interactiveRate is the offered conversation rate, about 40% of the
	// 31/s the fleet sustained on a 2-core box. Nearer saturation, the
	// CPU time a shared host steals turns into queueing that swings the
	// millisecond latencies from run to run.
	interactiveRate = 12.0
	// maxAnswerRounds caps a conversation; the paper's loop defaults to 8.
	maxAnswerRounds = 16
)

// generate draws Person entities of 3–8 unsourced tuples, the same number
// of each size, and keeps those whose in-process conversation needs at
// least two answer rounds. Equal size strata keep a run's cost from
// hinging on its seed's size mix.
func (w *interactive) generate(seed int64, seconds float64) error {
	w.rate = interactiveRate
	const minSize, maxSize = 3, 8
	need := int(seconds*w.rate) + 8
	perSize := (need + 4 + maxSize - minSize) / (maxSize - minSize + 1)
	strata := make([][]*convo, 0, maxSize-minSize+1)
	for size := minSize; size <= maxSize; size++ {
		var kept []*convo
		for batch := int64(0); len(kept) < perSize; batch++ {
			if batch > 256 {
				return fmt.Errorf("interactive: only %d of %d multi-round conversations of %d tuples", len(kept), perSize, size)
			}
			sub := seed*1_000_003 + int64(size)*1_000 + batch
			ds := datagen.Person(personConfig(16, size, size, sub))
			if w.rs == nil {
				w.rules = rulesOf(ds, false)
				rs, err := w.rules.compile()
				if err != nil {
					return err
				}
				w.rs = rs
			}
			nameAttr := ds.Schema.MustAttr("name")
			cands := make([]*convo, len(ds.Entities))
			for i, e := range ds.Entities {
				rows, _ := rowsOf(e.Spec.TI.Inst)
				name := relation.String(fmt.Sprintf("i%d_%d_%d_%d", seed, size, batch, i))
				for _, r := range rows {
					r[nameAttr] = name
				}
				truth := e.Truth.Clone()
				truth[nameAttr] = name
				cands[i] = &convo{id: fmt.Sprintf("c%d-%d-%d", size, batch, i), rows: rows, truth: truth}
			}
			multi, err := w.multiRound(cands)
			if err != nil {
				return err
			}
			for i, c := range cands {
				if multi[i] && len(kept) < perSize {
					kept = append(kept, c)
				}
			}
		}
		strata = append(strata, kept)
	}
	// Conversations arrive in a fixed rotation of sizes, the same for
	// every seed.
	order := []int{2, 0, 5, 1, 4, 3}
	var all []*convo
	for i := 0; i < perSize; i++ {
		for _, k := range order {
			all = append(all, strata[k][i])
		}
	}
	for _, c := range all {
		tuples := make([][]any, len(c.rows))
		for k, r := range c.rows {
			tuples[k] = rowJSON(r)
		}
		body, err := json.Marshal(map[string]any{
			"schema": w.rules.Schema, "currency": w.rules.Currency, "cfds": w.rules.CFDs,
			"entity": map[string]any{"id": c.id, "tuples": tuples},
		})
		if err != nil {
			return err
		}
		c.body = body
	}
	w.warmC, w.convos = all[:4], all[4:]
	return nil
}

// multiRound reports, per candidate, whether its conversation needs at
// least two answer rounds.
func (w *interactive) multiRound(cands []*convo) ([]bool, error) {
	out := make([]bool, len(cands))
	errs := make([]error, len(cands))
	parallel(len(cands), func(i int) bool {
		out[i], errs[i] = w.needsTwoRounds(cands[i])
		return true
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// needsTwoRounds runs the simulated user in-process until the conversation
// has taken two answer rounds or ends, and reports whether it took two.
func (w *interactive) needsTwoRounds(c *convo) (bool, error) {
	sch := w.rs.Schema()
	applied, err := w.simulate(c, 2, func(_ int, s *conflictres.Session, suggested []string) (map[string]conflictres.Value, bool) {
		if suggested == nil {
			return nil, false
		}
		attr, v, ok := pickAnswer(sch, c.truth, suggested, s.Deduce())
		if !ok {
			return nil, false
		}
		return map[string]conflictres.Value{attr: v}, true
	})
	return applied == 2, err
}

// simulate steps an in-process Session over the conversation's rows for at
// most rounds rounds. Each round it calls step with the session and the
// suggested attributes (nil once the session is invalid or complete), and
// applies the answer step returns; step returns false to stop. It returns
// the number of answers applied.
func (w *interactive) simulate(c *convo, rounds int, step func(round int, s *conflictres.Session, suggested []string) (map[string]conflictres.Value, bool)) (int, error) {
	spec, err := bindRows(w.rs, c.rows, nil)
	if err != nil {
		return 0, err
	}
	s, err := conflictres.NewSession(spec)
	if err != nil {
		return 0, err
	}
	sch := w.rs.Schema()
	for round := 0; round < rounds; round++ {
		var names []string
		if s.Valid() && !s.Complete() {
			sug, err := s.Suggest()
			if err != nil {
				return round, err
			}
			names = make([]string, len(sug.Attrs))
			for i, a := range sug.Attrs {
				names[i] = sch.Name(a)
			}
		}
		ans, ok := step(round, s, names)
		if !ok {
			return round, nil
		}
		if err := s.Apply(ans); err != nil {
			return round, err
		}
	}
	return rounds, nil
}

// pickAnswer is the simulated user: the first suggested attribute whose
// true value is known and not yet resolved.
func pickAnswer(sch *conflictres.Schema, truth relation.Tuple, suggested []string, resolved map[string]conflictres.Value) (string, conflictres.Value, bool) {
	for _, name := range suggested {
		a, ok := sch.Attr(name)
		if !ok || truth[a].IsNull() {
			continue
		}
		if _, done := resolved[name]; done {
			continue
		}
		return name, truth[a], true
	}
	return "", conflictres.Null, false
}

// resolvedNames decodes a state's resolved map into attribute names.
func resolvedNames(raw json.RawMessage) map[string]conflictres.Value {
	out := make(map[string]conflictres.Value)
	var m map[string]json.RawMessage
	if json.Unmarshal(raw, &m) != nil {
		return out
	}
	for k, v := range m {
		val, err := relation.FromJSONScalar(v)
		if err == nil {
			out[k] = val
		}
	}
	return out
}

// converse drives one conversation; its latencies go to slot. due is when
// the conversation was due to start: the create latency is taken from it,
// so time spent waiting for a free connection counts. Answer rounds are
// due when the previous reply arrived.
func (w *interactive) converse(ctx context.Context, client *http.Client, url string, c *convo, due time.Time, lat *latencies, slot int) *convoRecord {
	rec := &convoRecord{c: c}
	status, data, err := doJSON(ctx, client, http.MethodPost, url+"/v1/session", c.body)
	if lat != nil {
		lat.add(slot, "create", time.Since(due))
	}
	if err != nil || status != http.StatusOK {
		rec.err = fmt.Errorf("create: status %d: %v", status, err)
		return rec
	}
	var st sessionState
	if err := json.Unmarshal(data, &st); err != nil || st.Session == "" {
		rec.err = fmt.Errorf("create: bad state %q", data)
		return rec
	}
	rec.states = append(rec.states, st)
	id := st.Session
	sch := w.rs.Schema()
	for len(rec.answers) < maxAnswerRounds && st.Valid && !st.Complete && st.Suggestion != nil {
		attr, v, ok := pickAnswer(sch, c.truth, st.Suggestion.Attrs, resolvedNames(st.Resolved))
		if !ok {
			break
		}
		body, _ := json.Marshal(map[string]any{"answers": map[string]any{attr: v.AsJSON()}}) // scalars always marshal
		sent := time.Now()
		status, data, err := doJSON(ctx, client, http.MethodPost, url+"/v1/session/"+id+"/answer", body)
		if lat != nil {
			lat.add(slot, "answer", time.Since(sent))
		}
		if err != nil || status != http.StatusOK {
			rec.err = fmt.Errorf("answer: status %d: %v", status, err)
			return rec
		}
		st = sessionState{}
		if err := json.Unmarshal(data, &st); err != nil {
			rec.err = fmt.Errorf("answer: bad state %q", data)
			return rec
		}
		rec.answers = append(rec.answers, map[string]relation.Value{attr: v})
		rec.states = append(rec.states, st)
	}
	status, _, err = doJSON(ctx, client, http.MethodDelete, url+"/v1/session/"+id, nil)
	if err != nil || status != http.StatusNoContent {
		rec.err = fmt.Errorf("delete: status %d: %v", status, err)
	}
	return rec
}

func (w *interactive) warm(ctx context.Context, client *http.Client, url string) error {
	for _, c := range w.warmC {
		if rec := w.converse(ctx, client, url, c, time.Now(), nil, 0); rec.err != nil {
			return rec.err
		}
	}
	return nil
}

// interactiveSlot is the number of conversations in a slot: 2.5 s at the
// offered rate, five turns of the rotation of sizes.
const interactiveSlot = 30

func (w *interactive) run(ctx context.Context, client *http.Client, url string, window time.Duration, meter *slotMeter) *outcome {
	out := &outcome{lat: newLatencies()}
	n := slotJobs(window, w.rate, interactiveSlot, len(w.convos))
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(float64(i) / w.rate * float64(time.Second))
	}
	recs := make([]*convoRecord, n)
	start := time.Now()
	out.late = openLoop(ctx, start, dues, interactiveSlot, meter, 2, func(i, slot int, due time.Time) {
		recs[i] = w.converse(ctx, client, url, w.convos[i], due, out.lat, slot)
		out.lat.done(slot, 1)
	})
	out.wall = time.Since(start)
	var done []*convoRecord
	for _, r := range recs {
		if r != nil {
			done = append(done, r)
			out.requests += 2 + len(r.answers)
		}
	}
	out.ops = len(done)
	rounds := make([]float64, 0, len(done))
	for _, r := range done {
		rounds = append(rounds, float64(len(r.answers)))
	}
	out.extra = map[string]float64{"rounds_per_convo": mean(rounds)}
	out.check = func() (int, int) { return w.verify(done) }
	out.records = done
	return out
}

// verify replays every recorded conversation through an in-process
// Session with the same answers, comparing validity, completeness,
// resolved values and the suggestion sequence after every round.
func (w *interactive) verify(recs []*convoRecord) (int, int) {
	return len(recs), parallel(len(recs), func(i int) bool { return w.replayMatches(recs[i]) })
}

func (w *interactive) replayMatches(rec *convoRecord) bool {
	if rec.err != nil || len(rec.states) == 0 {
		return false
	}
	sch := w.rs.Schema()
	match := true
	_, err := w.simulate(rec.c, len(rec.states), func(round int, s *conflictres.Session, suggested []string) (map[string]conflictres.Value, bool) {
		if !stateMatches(sch, s, suggested, rec.states[round]) {
			match = false
			return nil, false
		}
		if round == len(rec.answers) {
			return nil, false
		}
		return rec.answers[round], true
	})
	return match && err == nil
}

// stateMatches compares one recorded session state with the in-process
// session at the same round.
func stateMatches(sch *conflictres.Schema, s *conflictres.Session, suggested []string, st sessionState) bool {
	if s.Valid() != st.Valid {
		return false
	}
	if !st.Valid {
		return true
	}
	want := make(map[conflictres.Attr]conflictres.Value)
	for name, v := range s.Deduce() {
		want[sch.MustAttr(name)] = v
	}
	if emptyCanon(canonResolved(sch, want)) != emptyCanon(canonRaw(st.Resolved)) || s.Complete() != st.Complete {
		return false
	}
	if st.Complete {
		return true
	}
	var got []string
	if st.Suggestion != nil {
		got = st.Suggestion.Attrs
	}
	return slices.Equal(got, suggested)
}

func (w *interactive) metrics(o *outcome) {
	ans := o.lat.get("answer", o.keep)
	o.set("p50_ms", median(ans))
	o.setTail(ans)
	o.set("aux_p50_ms", median(o.lat.get("create", o.keep)))
	o.named = append(o.named,
		namedMetric{"conversations_per_s", "1/s", o.e2e["throughput_per_s"]},
		namedMetric{"create_p50_ms", "ms", o.e2e["aux_p50_ms"]},
		namedMetric{"answer_p50_ms", "ms", o.e2e["p50_ms"]},
		namedMetric{tailName("answer"), "ms", o.e2e[tailKey]},
		namedMetric{"rounds_per_convo", "count", o.extra["rounds_per_convo"]},
		namedMetric{"offered_convos_per_s", "1/s", w.rate},
	)
}

func (w *interactive) cpuLedger() bool { return false }

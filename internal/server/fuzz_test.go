package server

import (
	"encoding/json"
	"testing"

	"conflictres"
	"conflictres/internal/encode"
	"conflictres/internal/model"
	"conflictres/internal/relation"
)

// FuzzSessionCreateJSON feeds arbitrary bytes to the session-create wire
// codec: decode, rule compilation and entity binding must never panic, and
// any body that binds successfully must also survive re-encoding its bound
// instance (the state snapshot depends on that). The solver itself is not
// invoked — the fuzz target covers the codec surface, not SAT search.
func FuzzSessionCreateJSON(f *testing.F) {
	seeds := []string{
		`{"schema":["name","status"],"currency":["t1[status] = \"working\" & t2[status] = \"retired\" -> t1 <[status] t2"],"entity":{"id":"e","tuples":[["n","working"],["n","retired"]]}}`,
		`{"schema":["a"],"entity":{"tuples":[[null]]}}`,
		`{"schema":["a","b"],"cfds":["a = \"1\" => b = \"2\""],"entity":{"tuples":[["1","2"]],"orders":[{"attr":"a","t1":0,"t2":0}]}}`,
		`{"schema":["a"],"entity":{"tuples":[[1.5],[-3],[9007199254740993]]}}`,
		`{"schema":[],"entity":{"tuples":[]}}`,
		`{"schema":["a"],"entity":{"tuples":[[true]]}}`,
		`{"schema":["a"],"entity":{"tuples":[["x","y"]]}}`,
		`{"schema":["a","a"],"entity":{"tuples":[["x","y"]]}}`,
		`{"entity":{}}`,
		`{`,
		"\x00\xff",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req sessionCreateRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		rules, err := compileWireRules(&req.ruleSetJSON)
		if err != nil {
			return
		}
		spec, err := bindEntity(rules, req.Entity.Tuples, req.Entity.Sources, req.Entity.Orders)
		if err != nil {
			return
		}
		// Anything that binds must encode back without panicking, with one
		// wire value per attribute per tuple.
		in := spec.Instance()
		for _, id := range in.TupleIDs() {
			for _, v := range in.Tuple(id) {
				_ = v.AsJSON()
				_ = v.Quote()
			}
		}
	})
}

// FuzzEntityUpsertJSON feeds arbitrary bytes to the live-entity upsert wire
// codec and drives one change-data-capture extend round through the
// encoding layer: decode, rule compilation, row binding and the monotone
// clause append (or its rebuild-needed verdict) must never panic. The SAT
// solver is not invoked — the target covers the codec and the formula
// delta, not search.
func FuzzEntityUpsertJSON(f *testing.F) {
	seeds := []string{
		`{"schema":["name","status"],"currency":["t1[status] = \"working\" & t2[status] = \"retired\" -> t1 <[status] t2"],"rows":[["n","working"],["n","retired"]]}`,
		`{"schema":["a","b"],"cfds":["a = \"1\" => b = \"2\""],"rows":[["1","2"],["1",null]],"orders":[{"attr":"b","t1":0,"t2":1}]}`,
		`{"schema":["a"],"rows":[[1.5],[-3],[9007199254740993]]}`,
		`{"schema":["a"],"rows":[["x"]],"orders":[{"attr":"a","t1":0,"t2":9}]}`,
		`{"schema":["a"],"rows":[[true]]}`,
		`{"schema":["a","a"],"rows":[["x","y"]]}`,
		`{"schema":[],"rows":[]}`,
		`{"rows":[[]]}`,
		`{`,
		"\x00\xff",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req entityUpsertRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		rules, err := compileWireRules(&req.ruleSetJSON)
		if err != nil {
			return
		}
		rows, err := decodeRows(rules, req.Rows)
		if err != nil || len(rows) == 0 {
			return
		}
		sch := rules.Schema()
		in := conflictres.NewInstance(sch)
		if _, err := in.Add(rows[0]); err != nil {
			return
		}
		spec, err := conflictres.NewSpecFromRules(in, rules)
		if err != nil {
			return
		}
		rest := rows[1:]
		total := 1 + len(rest)
		edges := make([]model.OrderEdge, 0, len(req.Orders))
		for _, o := range req.Orders {
			a, ok := sch.Attr(o.Attr)
			if !ok || o.T1 < 0 || o.T2 < 0 || o.T1 >= total || o.T2 >= total {
				return
			}
			edges = append(edges, model.OrderEdge{Attr: a, T1: relation.TupleID(o.T1), T2: relation.TupleID(o.T2)})
		}
		enc := encode.Build(spec.Model(), encode.Options{})
		// One extend round: either the delta appends monotonically or the
		// encoding reports it needs a rebuild; both are fine, panics are not.
		_ = enc.ExtendRows(rest, edges)
	})
}

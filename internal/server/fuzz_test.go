package server

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"conflictres"
	"conflictres/internal/encode"
	"conflictres/internal/model"
	"conflictres/internal/relation"
	"conflictres/internal/wire"
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

// FuzzBatchEntityLine checks the batch line scanner against encoding/json:
// a line wire.ScanEntity takes must decode by json.Unmarshal to the same
// entity, and decodeBatchEntity must give what the reflective path gives,
// the same entity or the same error text. wire.ScanID must agree with
// json.Unmarshal into crshard's routing shape the same way.
func FuzzBatchEntityLine(f *testing.F) {
	body, err := os.ReadFile(filepath.Join("testdata", "batch_stream.ndjson"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(body, []byte("\n")) {
		f.Add(line)
	}
	for _, s := range []string{
		`{"id":"e","tuples":[["a",1,-2.5e3,null,true]],"sources":["s"],"orders":[{"attr":"a","t1":0,"t2":1}]}`,
		`{"id":"e","id":"f","tuples":[]}`,
		`{"ID":"e","tuples":[[1]]}`,
		`{"ſources":["x"],"tuples":[[1]]}`,
		`{"id":null,"tuples":null,"sources":[null],"orders":null}`,
		`{"tuples":[[[1]],[{"a":1}]]}`,
		`{"tuples":[[1]]} x`,
		`{"tuples":[["é\ud800","é\xff"]],"id":"A"}`,
		`{"extra":{"a":[1,2,{"b":null}]},"tuples":[[1e400, 01]]}`,
		`{"orders":[{"attr":"a","t1":1.0,"t2":99999999999999999999}]}`,
		`{"orders":[{"attr":"a","t1":1,"T2":2}]}`,
		` { "id" : "sp" , "tuples" : [ [ "a" , 2 ] ] } `,
		`[1]`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var fast, ref wire.Entity
		took := wire.ScanEntity(line, &fast)
		refErr := json.Unmarshal(line, &ref)
		if took && (refErr != nil || !reflect.DeepEqual(fast, ref)) {
			t.Fatalf("scanner took %q as %+v; json.Unmarshal gives %+v, %v", line, fast, ref, refErr)
		}
		got, err := decodeBatchEntity(bytes.Clone(line))
		switch {
		case refErr == nil:
			if err != nil || !reflect.DeepEqual(*got, ref) {
				t.Fatalf("decodeBatchEntity(%q) = %+v, %v; want %+v", line, got, err, ref)
			}
		default:
			want := json.Unmarshal(line, new(entityJSON))
			if want == nil {
				want = refErr
			}
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("decodeBatchEntity(%q) error %v, want %v", line, err, want)
			}
		}

		var key struct {
			ID string `json:"id"`
		}
		keyErr := json.Unmarshal(line, &key)
		if id, ok := wire.ScanID(line); ok && (keyErr != nil || id != key.ID) {
			t.Fatalf("ScanID(%q) = %q; json.Unmarshal gives %q, %v", line, id, key.ID, keyErr)
		}
	})
}

// FuzzResultEncode checks the append encoder byte for byte against
// json.Marshal of the reflective resultJSON shape it replaced, over every
// field, awkward attribute names and string, int, float and null values.
// Where json.Marshal refuses a value (NaN, ±Inf) the encoder must report
// failure.
func FuzzResultEncode(f *testing.F) {
	f.Add("e1", 3, 0, true, "LA", "a<b>&c", int64(213), 1.5, uint8(0xff), 2, int64(1500), false, "", "")
	f.Add("", -1, 7, true, "  \x00\x1f\"\\", "\xff\xfe", int64(-1), 1e21, uint8(0x15), 0, int64(0), true, "", "")
	f.Add("q\"uote", 0, 0, false, "", "", int64(0), 1e-7, uint8(0), 0, int64(0), false, "timeout", "deadline <exceeded>")
	f.Add("x", 1, 0, true, "é", "\b\f\n\r\t", int64(0), -0.0, uint8(0x1e), 1, int64(9), false, "", "")
	f.Add("y", 2, 0, true, "", "", int64(9007199254740993), 5e-324, uint8(0x04), 0, int64(1), false, "", "")
	f.Add("z", 4, 0, true, "", "", int64(0), 123456789.125, uint8(0x04), 0, int64(2), false, "", "")
	sch := relation.MustSchema("name", "Zip", "<city>", "ç", "a\u2028", "city")
	enc := newResultEncoder(sch)
	f.Fuzz(func(t *testing.T, id string, index, rows int, valid bool, s1, s2 string, i int64, fl float64, mask uint8, rounds int, us int64, cached bool, code, msg string) {
		tuple := conflictres.Tuple{
			conflictres.String(s1), relation.Int(i), relation.Float(fl),
			relation.Null, conflictres.String(s2), conflictres.String(s1 + s2),
		}
		r := resultLine{id: id, index: index, rows: rows, valid: valid, rounds: rounds, cached: cached}
		ref := resultJSON{ID: id, Rows: rows, Valid: valid, Rounds: rounds, Cached: cached}
		if index >= 0 {
			ref.Index = &index
		} else {
			r.index = -1
		}
		if mask&0x80 == 0 {
			r.tuple = tuple[:int(mask)%(len(tuple)+1)]
			for _, v := range r.tuple {
				ref.Tuple = append(ref.Tuple, v.AsJSON())
			}
		}
		for a := range tuple {
			if mask&(1<<a) != 0 {
				if r.resolved == nil {
					r.resolved = map[conflictres.Attr]conflictres.Value{}
					ref.Resolved = map[string]any{}
				}
				r.resolved[conflictres.Attr(a)] = tuple[a]
				ref.Resolved[sch.Name(conflictres.Attr(a))] = tuple[a].AsJSON()
			}
		}
		if us != 0 {
			d := time.Duration(us) * time.Microsecond
			r.timing = &conflictres.Timing{Validity: d, Deduce: 2 * d, Suggest: d / 3}
			ref.Timing = &timingJSON{
				ValidityUs: r.timing.Validity.Microseconds(),
				DeduceUs:   r.timing.Deduce.Microseconds(),
				SuggestUs:  r.timing.Suggest.Microseconds(),
				TotalUs:    r.timing.Total().Microseconds(),
			}
		}
		if code != "" || msg != "" {
			r.err = &errorJSON{Code: code, Message: msg}
			ref.Error = r.err
		}
		want, wantErr := json.Marshal(&ref)
		got, ok := enc.appendLine([]byte("prefix"), &r)
		if string(got[:6]) != "prefix" {
			t.Fatalf("encoder overwrote the buffer it appends to: %q", got)
		}
		switch {
		case wantErr != nil:
			if ok || len(got) != 6 {
				t.Fatalf("encoder wrote %q where json.Marshal fails: %v", got, wantErr)
			}
		case !ok || !bytes.Equal(got[6:], want):
			t.Fatalf("encoder wrote\n%s\njson.Marshal writes\n%s", got[6:], want)
		}
	})
}

package shard

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// freeModeBody renders a constraint-free sourced resolve request under the
// named mode; the coordinator must forward every mode/trust/source field
// verbatim.
func freeModeBody(t testing.TB, id, mode string) []byte {
	t.Helper()
	req := map[string]any{
		"schema": []string{"name", "city"},
		"trust":  []string{`"hq" > "mirror"`},
		"entity": map[string]any{
			"id":      id,
			"tuples":  []any{[]any{"e", "LA"}, []any{"e", "NY"}},
			"sources": []string{"mirror", "hq"},
		},
	}
	if mode != "" {
		req["mode"] = mode
	}
	return marshalLine(t, req)
}

// TestShardModeParity: resolution modes, trust mappings and source tags ride
// the coordinator unchanged — every mode's sharded answer is byte-identical
// to a single node's, and unknown modes surface the backend's structured
// 400 unchanged.
func TestShardModeParity(t *testing.T) {
	urls := []string{newBackendURL(t), newBackendURL(t)}
	_, curl := newShard(t, urls, nil)
	single := newBackendURL(t)

	for _, mode := range []string{"", "sat", "latest-writer-wins", "highest-trust", "consensus"} {
		for i := 0; i < 4; i++ {
			body := freeModeBody(t, "e"+mode+string(rune('a'+i)), mode)
			resp, got := postJSON(t, curl+"/v1/resolve", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("mode %q: coordinator status %d: %s", mode, resp.StatusCode, got)
			}
			resp, want := postJSON(t, single+"/v1/resolve", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("mode %q: single-node status %d: %s", mode, resp.StatusCode, want)
			}
			var gm, wm map[string]json.RawMessage
			if err := json.Unmarshal(got, &gm); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(want, &wm); err != nil {
				t.Fatal(err)
			}
			for _, field := range []string{"valid", "resolved", "tuple", "rounds"} {
				if !bytes.Equal(gm[field], wm[field]) {
					t.Fatalf("mode %q field %s: coordinator %s, single node %s",
						mode, field, gm[field], wm[field])
				}
			}
		}
	}

	resp, data := postJSON(t, curl+"/v1/resolve", freeModeBody(t, "bad", "most-recent"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown mode via coordinator: status %d: %s", resp.StatusCode, data)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(data, &env); err != nil || env.Error.Code != "unknown_mode" {
		t.Fatalf("unknown-mode envelope lost in forwarding: %s (%v)", data, err)
	}
}

// TestShardBatchModeParity: the batch header's mode reaches every backend in
// the fan-out; sharded per-entity results match a single node's.
func TestShardBatchModeParity(t *testing.T) {
	urls := []string{newBackendURL(t), newBackendURL(t)}
	_, curl := newShard(t, urls, func(c *Config) { c.ChunkEntities = 2 })
	single := newBackendURL(t)

	var buf bytes.Buffer
	buf.Write(marshalLine(t, map[string]any{
		"schema": []string{"name", "city"},
		"mode":   "latest-writer-wins",
	}))
	buf.WriteByte('\n')
	for i := 0; i < 8; i++ {
		buf.Write(marshalLine(t, map[string]any{
			"id":     string(rune('a' + i)),
			"tuples": []any{[]any{"e", "LA"}, []any{"e", "NY"}},
		}))
		buf.WriteByte('\n')
	}
	body := buf.Bytes()

	collect := func(url string) map[string]string {
		t.Helper()
		resp, data := postJSON(t, url+"/v1/resolve/batch", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status %d: %s", resp.StatusCode, data)
		}
		out := map[string]string{}
		dec := json.NewDecoder(bytes.NewReader(data))
		for dec.More() {
			var line struct {
				ID    string `json:"id"`
				Tuple []any  `json:"tuple"`
			}
			if err := dec.Decode(&line); err != nil {
				t.Fatal(err)
			}
			b, _ := json.Marshal(line.Tuple)
			out[line.ID] = string(b)
		}
		return out
	}
	sharded, base := collect(curl), collect(single)
	if len(sharded) != 8 || len(base) != 8 {
		t.Fatalf("got %d sharded / %d baseline lines", len(sharded), len(base))
	}
	for id, want := range base {
		if sharded[id] != want {
			t.Fatalf("entity %s: coordinator %s, single node %s", id, sharded[id], want)
		}
		if want != `["e","NY"]` {
			t.Fatalf("entity %s: latest-writer-wins not applied: %s", id, want)
		}
	}
}

// TestShardEntityModeSticky: the live-entity mode rides the ring too — a
// mode flip answers the backend's 409 through the coordinator.
func TestShardEntityModeSticky(t *testing.T) {
	urls := []string{newBackendURL(t), newBackendURL(t)}
	_, curl := newShard(t, urls, nil)

	upsert := func(mode string, row []any, src string) (*http.Response, []byte) {
		t.Helper()
		req := map[string]any{
			"schema":  []string{"name", "city"},
			"trust":   []string{`"hq" > "mirror"`},
			"rows":    []any{row},
			"sources": []string{src},
		}
		if mode != "" {
			req["mode"] = mode
		}
		return postJSON(t, curl+"/v1/entity/sticky/rows", marshalLine(t, req))
	}

	resp, data := upsert("highest-trust", []any{"e", "NY"}, "hq")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d: %s", resp.StatusCode, data)
	}
	resp, data = upsert("highest-trust", []any{"e", "LA"}, "mirror")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extend: status %d: %s", resp.StatusCode, data)
	}
	var st struct {
		Tuple []any `json:"tuple"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Tuple) != 2 || st.Tuple[1] != "NY" {
		t.Fatalf("highest-trust entity state = %v, want hq's NY", st.Tuple)
	}
	resp, data = upsert("consensus", []any{"e", "LA"}, "mirror")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mode flip: status %d: %s, want 409", resp.StatusCode, data)
	}
}

// TestShardStreamHeaderParity: a batch or dataset header with an unknown
// mode or a bad trust statement answers the coordinator's client the same
// 400 envelope, byte for byte, as one crserve answers, and no backend sees
// the stream.
func TestShardStreamHeaderParity(t *testing.T) {
	c, curl := newShard(t, []string{newBackendURL(t)}, nil)
	single := newBackendURL(t)
	bodies := map[string][]byte{
		"/v1/resolve/batch":   edithBatchBody(t, 2),
		"/v1/resolve/dataset": edithDatasetBody(t, 2),
	}
	for path, body := range bodies {
		for field, value := range map[string]any{"mode": "most-recent", "trust": []string{"not a trust statement"}} {
			header, rows, _ := bytes.Cut(body, []byte("\n"))
			var hdr map[string]any
			if err := json.Unmarshal(header, &hdr); err != nil {
				t.Fatal(err)
			}
			hdr[field] = value
			bad := append(append(marshalLine(t, hdr), '\n'), rows...)
			resp, want := postJSON(t, single+path, bad)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s bad %s: crserve status %d: %s", path, field, resp.StatusCode, want)
			}
			resp, got := postJSON(t, curl+path, bad)
			if resp.StatusCode != http.StatusBadRequest || !bytes.Equal(got, want) {
				t.Fatalf("%s bad %s: coordinator %d %s, crserve 400 %s", path, field, resp.StatusCode, got, want)
			}
		}
	}
	if n := c.backends[0].requests.Load(); n != 0 {
		t.Fatalf("bad headers reached the backend %d times", n)
	}
}

package shard

import (
	"encoding/json"
	"io"
	"testing"
)

// TestLeadingIndex: the relay reads the index crserve writes after the
// optional id, and refuses lines it cannot attribute — invalid JSON (a
// stream cut mid-line), a missing or non-integral index, or fields in
// another order.
func TestLeadingIndex(t *testing.T) {
	for _, c := range []struct {
		line  string
		index int
		rest  string
		ok    bool
	}{
		{`{"id":"e1","index":3,"valid":true}`, 3, `,"valid":true}`, true},
		{`{"index":0,"valid":false,"error":{"code":"x","message":"y"}}`, 0, `,"valid":false,"error":{"code":"x","message":"y"}}`, true},
		{`{"id":"q\"u,\\\"index\":9","index":12,"valid":true}`, 12, `,"valid":true}`, true},
		{`{"index":7}`, 7, `}`, true},
		{`{"id":"e1","index":3,"valid":tr`, 0, ``, false},
		{`{"id":"e1","valid":true}`, 0, ``, false},
		{`{"id":"e1"}`, 0, ``, false},
		{`{"valid":true,"index":1}`, 0, ``, false},
		{`{"index":-1,"valid":true}`, 0, ``, false},
		{`{"index":1.5,"valid":true}`, 0, ``, false},
		{`{"index":1e2,"valid":true}`, 0, ``, false},
		{`{"index":12345678901,"valid":true}`, 0, ``, false},
		{`{ "index":1}`, 0, ``, false},
		{`[1]`, 0, ``, false},
		{``, 0, ``, false},
	} {
		index, rest, ok := leadingIndex([]byte(c.line))
		if ok != c.ok || (ok && (index != c.index || string(rest) != c.rest)) {
			t.Errorf("leadingIndex(%s) = %d, %q, %v; want %d, %q, %v", c.line, index, rest, ok, c.index, c.rest, c.ok)
		}
	}
}

// TestRestampMatchesEncoder: a restamped line reads exactly as the line
// encoding/json writes for the same id and index, for ids that need
// escaping too.
func TestRestampMatchesEncoder(t *testing.T) {
	for _, id := range []string{"", "e1", `q"uote`, `back\slash`, "<tag>&amp", "naïve ü ", "tab\tnew\nline\x00", "bad�", "del\x7f", "~plain ascii!"} {
		j := job{id: id, index: 42}
		got := string(restamp([]byte("junk"), &j, []byte(`,"valid":true}`)))
		want, err := json.Marshal(struct {
			ID    string `json:"id,omitempty"`
			Index int    `json:"index"`
			Valid bool   `json:"valid"`
		}{id, 42, true})
		if err != nil {
			t.Fatal(err)
		}
		if got != "junk"+string(want) {
			t.Errorf("restamp(%q) = %s, want %s", id, got, want)
		}
	}
}

// TestBatchRelayAllocFree: relaying a batch result line — attribute,
// restamp, write — allocates nothing once the hop's buffer has grown; the
// bulk workload runs it once per entity.
func TestBatchRelayAllocFree(t *testing.T) {
	s := batchStream{&emitter{out: io.Discard, mergeNs: func(int64) {}}}
	h := &inflight{jobs: []job{{id: "e1", index: 3}, {id: "e2", index: 9}}}
	line := []byte(`{"id":"x","index":1,"valid":true,"resolved":{"city":"LA"},"rounds":0}`)
	s.relay(h, line)
	if !h.jobs[1].settled() || h.jobs[0].settled() {
		t.Fatalf("relay marked %+v, want only the job at index 1", h.jobs)
	}
	if got := string(h.out); got != `{"id":"e2","index":9,"valid":true,"resolved":{"city":"LA"},"rounds":0}` {
		t.Fatalf("relayed %s", got)
	}
	if n := testing.AllocsPerRun(100, func() { s.relay(h, line) }); n != 0 {
		t.Fatalf("batch relay allocates %v times per line", n)
	}
}

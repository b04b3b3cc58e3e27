package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
)

// timingUs matches the per-phase microsecond counters, the only bytes of a
// result line that differ between runs.
var timingUs = regexp.MustCompile(`(Us":)\d+`)

// postBatchStream posts the golden batch body to url's /v1/resolve/batch
// and returns the result lines sorted by index, timings zeroed. The body's
// "warm" entity is resolved by a one-line batch first, so its line in the
// body answers from the result cache.
func postBatchStream(t *testing.T, url string) string {
	t.Helper()
	body, err := os.ReadFile(filepath.Join("testdata", "batch_stream.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(body, []byte("\n"))
	var warm []byte
	for _, l := range lines[1:] {
		if bytes.HasPrefix(l, []byte(`{"id":"warm"`)) {
			warm = append(append(append(append([]byte(nil), lines[0]...), '\n'), l...), '\n')
		}
	}
	if warm == nil {
		t.Fatal("golden body has no warm entity")
	}
	post := func(b []byte) []byte {
		resp, err := http.Post(url+"/v1/resolve/batch", "application/x-ndjson", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: status %d, %v: %s", resp.StatusCode, err, out)
		}
		return out
	}
	post(warm)
	return sortedStream(t, post(body))
}

// sortedStream orders NDJSON result lines by their index and zeroes their
// timings.
func sortedStream(t *testing.T, out []byte) string {
	t.Helper()
	type line struct {
		index int
		text  []byte
	}
	var got []line
	for _, l := range bytes.Split(bytes.TrimSuffix(out, []byte("\n")), []byte("\n")) {
		var head struct {
			Index *int `json:"index"`
		}
		if err := json.Unmarshal(l, &head); err != nil || head.Index == nil {
			t.Fatalf("unindexed result line %q (%v)", l, err)
		}
		got = append(got, line{*head.Index, timingUs.ReplaceAll(l, []byte("${1}0"))})
	}
	sort.Slice(got, func(i, j int) bool { return got[i].index < got[j].index })
	var b bytes.Buffer
	for _, l := range got {
		b.Write(l.text)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestBatchStreamGolden pins the bytes of crserve's /v1/resolve/batch
// output for one fixed body: ids that need escaping, an anonymous entity,
// a line whose tuples have the wrong JSON type, a malformed line, a
// non-object line, int/float/string/null cells (escaped strings, an
// overflowing int, -0, exponents), explicit orders, bind errors, an
// invalid specification and a cached repeat. The coordinator's golden
// (internal/shard) covers the same body through the fleet.
func TestBatchStreamGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	got := postBatchStream(t, ts.URL)
	path := filepath.Join("testdata", "batch_stream.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("batch stream differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

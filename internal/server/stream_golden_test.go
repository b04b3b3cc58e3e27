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
	postNDJSON(t, url+"/v1/resolve/batch", warm)
	return sortedStream(t, postNDJSON(t, url+"/v1/resolve/batch", body))
}

// postNDJSON posts an NDJSON body and returns the 200 response body.
func postNDJSON(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d, %v: %s", url, resp.StatusCode, err, out)
	}
	return out
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

// wallClock matches the dataset summary's wall-clock figures, the only
// bytes of a dataset stream that differ between runs.
var wallClock = regexp.MustCompile(`("(?:wallUs|rowsPerSec)":)[-+.e0-9]+`)

// TestDatasetStreamGolden pins the bytes of crserve's /v1/resolve/dataset
// output for one fixed sorted body, lines ordered by id and the summary's
// wall-clock figures zeroed: a multi-row entity with trust-ranked sources,
// int/float/null cells (an overflowing int, -0, exponents), ids that need
// escaping, a numeric key, a single-row entity, an invalid specification,
// an entity answered from the result cache (its rows are resolved alone
// first) and a bad row that aborts the stream in-band, dropping the entity
// still being grouped.
func TestDatasetStreamGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, err := os.ReadFile(filepath.Join("testdata", "dataset_stream.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(body, []byte("\n"))
	warm := append(append([]byte(nil), lines[0]...), '\n')
	for _, l := range lines[1:] {
		if bytes.HasPrefix(l, []byte(`{"entity":"warm"`)) {
			warm = append(append(warm, l...), '\n')
		}
	}
	postNDJSON(t, ts.URL+"/v1/resolve/dataset", warm)
	out := postNDJSON(t, ts.URL+"/v1/resolve/dataset", body)

	type line struct {
		id   string
		text []byte
	}
	var got []line
	for _, l := range bytes.Split(bytes.TrimSuffix(out, []byte("\n")), []byte("\n")) {
		var head struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(l, &head); err != nil {
			t.Fatalf("bad line %q: %v", l, err)
		}
		got = append(got, line{head.ID, wallClock.ReplaceAll(l, []byte("${1}0"))})
	}
	sort.Slice(got, func(i, j int) bool {
		if got[i].id != got[j].id {
			return got[i].id < got[j].id
		}
		return bytes.Compare(got[i].text, got[j].text) < 0
	})
	var b bytes.Buffer
	for _, l := range got {
		b.Write(l.text)
		b.WriteByte('\n')
	}
	path := filepath.Join("testdata", "dataset_stream.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("dataset stream differs from %s:\ngot:\n%s\nwant:\n%s", path, b.String(), want)
	}
}

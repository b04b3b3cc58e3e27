package shard

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

// goldenBody is the batch body crserve's stream golden pins; the
// coordinator's golden runs the same bytes through the fleet.
var goldenBody = filepath.Join("..", "server", "testdata", "batch_stream.ndjson")

// timingUs matches the per-phase microsecond counters, the only bytes of a
// result line that differ between runs.
var timingUs = regexp.MustCompile(`(Us":)\d+`)

// TestBatchStreamGolden pins the bytes of the coordinator's
// /v1/resolve/batch output over two backends. It differs from crserve's
// golden only where the coordinator answers for itself: its own
// bad-entity-line messages, and the id it stamps on a backend's error line
// for an entity the backend could not decode. The body's "warm" entity is
// resolved by a one-line batch first (both requests route it to the same
// backend), so its line answers from that backend's result cache.
func TestBatchStreamGolden(t *testing.T) {
	_, url := newShard(t, []string{newBackendURL(t), newBackendURL(t)}, nil)
	body, err := os.ReadFile(goldenBody)
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
	got := sortedStream(t, post(body))

	path := filepath.Join("testdata", "batch_stream.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("batch stream differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
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

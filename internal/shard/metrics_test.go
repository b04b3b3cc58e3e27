package shard

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMetricsGolden pins the coordinator's whole /metrics body: family
// order, sample names, labels and value formatting. The benchmark's
// scraper and dashboards key on these bytes. # HELP lines are left out of
// the comparison.
func TestMetricsGolden(t *testing.T) {
	c, err := New(Config{
		Backends:       []string{"http://10.0.0.1:8372", "http://10.0.0.2:8372/"},
		HealthInterval: time.Hour,
		// No request in this test reaches a backend; fail any that would.
		Client: &http.Client{Transport: failTransport{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	h := c.Handler()
	for _, req := range []struct{ method, path, body string }{
		{"POST", "/v1/resolve", "{"},
		{"POST", "/v1/resolve/batch", "{"},
		{"POST", "/v1/resolve/batch", ""},
		{"POST", "/v1/validate", "{"},
		{"GET", "/v1/session/nope", ""},
	} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(req.method, req.path, strings.NewReader(req.body)))
	}
	c.met.batchMergeNs.Add(1500)                    // 1.5e-06 s
	c.met.datasetMergeNs.Add(1_234_567_000_000_000) // 1.234567e+06 s
	c.met.replicaFailoverUpsert.Add(1)
	c.met.replicaForwards.Add(1234567)
	c.backends[0].retries.Add(3)
	c.backends[1].up.Store(false)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	compareGolden(t, filepath.Join("testdata", "metrics.golden"), withoutHelp(rec.Body.String()))
}

type failTransport struct{}

func (failTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("no backend in this test")
}

// withoutHelp drops the # HELP lines of an exposition body.
func withoutHelp(body string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(body, "\n") {
		if !strings.HasPrefix(line, "# HELP ") {
			b.WriteString(line)
		}
	}
	return b.String()
}

func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"conflictres"
)

// poolSample matches the process-wide pipeline-pool samples, whose values
// depend on which tests ran before.
var poolSample = regexp.MustCompile(`(?m)^(crserve_pool_[a-z_]+) \d+$`)

// TestMetricsGolden pins the whole /metrics body: family order, sample
// names, labels and value formatting. Dashboards and the benchmark's
// scraper key on these bytes. # HELP lines are left out of the comparison.
func TestMetricsGolden(t *testing.T) {
	s := New(Config{})
	t.Cleanup(s.Close)
	h := s.Handler()
	for _, req := range []struct{ method, path, body string }{
		{"POST", "/v1/resolve", "{"},
		{"POST", "/v1/resolve", "{"},
		{"POST", "/v1/validate", "{"},
		{"GET", "/v1/session/nope", ""},
		{"DELETE", "/v1/entity/nope", ""},
	} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(req.method, req.path, strings.NewReader(req.body)))
	}
	s.met.validityNs.Add(15000)            // 1.5e-05 s
	s.met.deduceNs.Add(1234567)            // 0.001234567 s
	s.met.suggestNs.Add(3_000_000_000_000) // 3000 s
	s.met.observeMode(conflictres.StrategyConsensus)
	s.met.liveRestored.Add(2)
	s.met.liveRestoreSkipped.Add(1)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := poolSample.ReplaceAllString(withoutHelp(rec.Body.String()), "$1 <process-wide>")
	compareGolden(t, filepath.Join("testdata", "metrics.golden"), body)
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

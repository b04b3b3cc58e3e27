package conflictres_test

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"conflictres/internal/server"
	"conflictres/internal/shard"
)

// mdLink matches inline markdown links [text](target).
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocLinks verifies that every relative link in the repository's
// markdown files points at a file or directory that exists, and that the
// documents the code references by name are present. It is the link-check
// half of the CI docs job.
func TestDocLinks(t *testing.T) {
	for _, must := range []string{
		"README.md", "DESIGN.md", "CONSTRAINTS.md", "ROADMAP.md",
		filepath.Join("docs", "OPERATIONS.md"),
	} {
		if _, err := os.Stat(must); err != nil {
			t.Errorf("required document missing: %s", must)
		}
	}

	var mdFiles []string
	for _, glob := range []string{"*.md", "docs/*.md"} {
		m, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		mdFiles = append(mdFiles, m...)
	}
	if len(mdFiles) < 5 {
		t.Fatalf("suspiciously few markdown files: %v", mdFiles)
	}
	for _, md := range mdFiles {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"),
				strings.HasPrefix(target, "#"):
				continue // external or intra-document
			}
			target, _, _ = strings.Cut(target, "#")
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken relative link %q (resolved %s)", md, m[1], resolved)
			}
		}
	}
}

// docMetric matches a full metric name in backticks, with or without a
// label set; shorthand such as `crserve_session_*` is not a name.
var docMetric = regexp.MustCompile("`((?:crserve|crshard)_[a-z0-9_]+)(?:\\{[^`]*\\})?`")

// TestMetricsDocumented keeps docs/OPERATIONS.md's metric tables and the
// crserve and crshard registries in step: every registered family has a
// table row that names it in full, and every name in a table row is
// registered. It is the metrics half of the CI docs job.
func TestMetricsDocumented(t *testing.T) {
	srv := server.New(server.Config{})
	defer srv.Close()
	coord, err := shard.New(shard.Config{Backends: []string{"http://127.0.0.1:1"}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	documented := map[string]bool{} // registered family -> has a row
	for _, h := range []http.Handler{srv.Handler(), coord.Handler()} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
				name, _, _ := strings.Cut(rest, " ")
				documented[name] = false
			}
		}
	}
	if len(documented) < 20 {
		t.Fatalf("only %d metric families scraped from crserve and crshard", len(documented))
	}

	doc := filepath.Join("docs", "OPERATIONS.md")
	data, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		first := strings.Split(line, "|")[1]
		for _, m := range docMetric.FindAllStringSubmatch(line, -1) {
			if _, ok := documented[m[1]]; !ok {
				t.Errorf("%s:%d: %s is not registered by crserve or crshard", doc, i+1, m[1])
				continue
			}
			if strings.Contains(first, m[0]) {
				documented[m[1]] = true
			}
		}
	}
	var missing []string
	for name, ok := range documented {
		if !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s has no row naming %s in full", doc, name)
	}
}

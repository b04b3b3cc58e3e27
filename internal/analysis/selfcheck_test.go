package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"conflictres/internal/analysis"
)

// TestRealTreeClean runs the full suite over the real module — the same
// check CI's crlint step performs — so `go test` alone catches a violation
// (or a stale waiver) before the lint step does.
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and checks the whole module; skipped in -short (CI runs cmd/crlint)")
	}
	prog, err := analysis.Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := analysis.RunAnalyzers(prog, analysis.All())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("finding on the real tree: %s", d)
	}
}

// TestMutationsCaught validates every analyzer against the real tree, not
// just fixtures: each case re-introduces a violation the suite guards
// against — reverting a release, restoring a pre-waiver call shape,
// breaking a metric name — in a scratch copy of the module, and asserts the
// analyzer reports it. This is the revert-the-hunk check automated.
func TestMutationsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("recompiles mutated module copies; skipped in -short")
	}
	cases := []struct {
		name     string
		file     string // module-relative file to mutate
		old, new string // textual mutation (first occurrence)
		pattern  string // package pattern to analyze
		analyzer string
		substr   string // expected in the finding message
	}{
		{
			name:     "lockbalance/unlock-removed",
			file:     "internal/live/registry.go",
			old:      "el, ok := r.m[key]\n\tif !ok {\n\t\tr.mu.Unlock()\n\t\treturn false\n\t}",
			new:      "el, ok := r.m[key]\n\tif !ok {\n\t\treturn false\n\t}",
			pattern:  "./internal/live",
			analyzer: "lockbalance",
			substr:   "r.mu (acquired at",
		},
		{
			name:     "lockbalance/close-under-container-lock",
			file:     "internal/live/registry.go",
			old:      "\tr.mu.Unlock()\n\tcloseAll([]*entry{e})",
			new:      "\tcloseAll([]*entry{e})\n\tr.mu.Unlock()",
			pattern:  "./internal/live",
			analyzer: "lockbalance",
			substr:   "closeAll called while container lock r.mu is held",
		},
		{
			name:     "poolpair/defer-release-removed",
			file:     "batch.go",
			old:      "\tpl := rs.acquirePipeline()\n\tdefer rs.releasePipeline(pl)\n\treturn resolveWith(",
			new:      "\tpl := rs.acquirePipeline()\n\treturn resolveWith(",
			pattern:  ".",
			analyzer: "poolpair",
			substr:   "pooled pipeline pl (checked out at",
		},
		{
			name:     "wireerr/waiver-stripped",
			file:     "internal/server/handlers.go",
			old:      " //crlint:ignore wireerr readiness 503 carries the status JSON probes parse, not an error envelope",
			new:      "",
			pattern:  "./internal/server",
			analyzer: "wireerr",
			substr:   "naked WriteHeader(503)",
		},
		{
			name:     "encodingalias/waiver-stripped",
			file:     "internal/core/session.go",
			old:      " //crlint:ignore encodingalias the session is its skeleton's single live consumer; install replaces enc on every rebuild",
			new:      "",
			pattern:  "./internal/core",
			analyzer: "encodingalias",
			substr:   "stored in field enc",
		},
		{
			name:     "metricname/counter-suffix-dropped",
			file:     "internal/server/metrics.go",
			old:      `"crserve_requests_total"`,
			new:      `"crserve_requests"`,
			pattern:  "./internal/server",
			analyzer: "metricname",
			substr:   `counter "crserve_requests" must end in _total`,
		},
	}

	root := moduleRoot(t)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dir := copyModule(t, root)
			path := filepath.Join(dir, tc.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(src), tc.old) {
				t.Fatalf("%s no longer contains the mutation target %q; update the test", tc.file, tc.old)
			}
			mutated := strings.Replace(string(src), tc.old, tc.new, 1)
			if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}

			prog, err := analysis.Load(dir, tc.pattern)
			if err != nil {
				t.Fatalf("loading mutated module: %v", err)
			}
			diags, err := analysis.RunAnalyzers(prog, analysis.All())
			if err != nil {
				t.Fatalf("running analyzers: %v", err)
			}
			for _, d := range diags {
				if d.Analyzer == tc.analyzer && strings.Contains(d.Message, tc.substr) {
					return
				}
			}
			t.Errorf("mutation not caught: want a %s finding containing %q, got %d finding(s):", tc.analyzer, tc.substr, len(diags))
			for _, d := range diags {
				t.Errorf("  %s", d)
			}
		})
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	return root
}

// copyModule clones the module's non-test Go sources (plus go.mod) into a
// scratch dir the mutation can scribble on.
func copyModule(t *testing.T, root string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".github", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if rel != "go.mod" && (!strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

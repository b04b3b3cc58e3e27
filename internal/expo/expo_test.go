package expo

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestValueFormatting: integers render as %d (not strconv's shortest 'g',
// which would give 1.234567e+06) and floats as %g.
func TestValueFormatting(t *testing.T) {
	for _, tc := range []struct {
		fam  func(*Family) *Family
		want string
	}{
		{func(f *Family) *Family { return f.Int(func() int64 { return 1234567 }) }, fmt.Sprintf("%d", 1234567)},
		{func(f *Family) *Family { return f.Int(func() int64 { return -3 }) }, fmt.Sprintf("%d", -3)},
		{func(f *Family) *Family { return f.Float(func() float64 { return 1.5e-05 }) }, fmt.Sprintf("%g", 1.5e-05)},
		{func(f *Family) *Family { return f.Float(func() float64 { return 1234567 }) }, fmt.Sprintf("%g", 1234567.0)},
		{func(f *Family) *Family { return f.Float(func() float64 { return 0.001234567 }) }, fmt.Sprintf("%g", 0.001234567)},
		{func(f *Family) *Family { return f.Float(func() float64 { return 0 }) }, fmt.Sprintf("%g", 0.0)},
	} {
		r := New()
		tc.fam(r.Gauge("x", "h"))
		got := strings.TrimSuffix(strings.SplitN(render(t, r), "\n", 3)[2], "\n")
		if got != "x "+tc.want {
			t.Errorf("sample %q, want %q", got, "x "+tc.want)
		}
	}
	if got := fmt.Sprintf("%d %g", 1234567, 1.5e-05); got != "1234567 1.5e-05" {
		t.Fatalf("fmt renders %q", got)
	}
}

// TestLabelEscaping: a label value's backslash, double quote and newline
// are escaped per the text format, and so are help text's.
func TestLabelEscaping(t *testing.T) {
	r := New()
	r.Counter("c_total", "a \\ b\nc").Int(func() int64 { return 1 }, "k", "q\"b\\n\nl", "j", "v")
	want := "# HELP c_total a \\\\ b\\nc\n" +
		"# TYPE c_total counter\n" +
		"c_total{k=\"q\\\"b\\\\n\\nl\",j=\"v\"} 1\n"
	if got := render(t, r); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

// TestDeclarationOrder: families and their samples render in declaration
// order, each family with exactly one HELP and one TYPE line, samples or
// not.
func TestDeclarationOrder(t *testing.T) {
	r := New()
	b := r.Counter("b_total", "second letter")
	r.Gauge("empty", "no samples")
	r.Gauge("a", "first letter").Int(func() int64 { return 2 }, "x", "2").Int(func() int64 { return 1 }, "x", "1")
	b.Int(func() int64 { return 7 })
	want := `# HELP b_total second letter
# TYPE b_total counter
b_total 7
# HELP empty no samples
# TYPE empty gauge
# HELP a first letter
# TYPE a gauge
a{x="2"} 2
a{x="1"} 1
`
	if got := render(t, r); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

// TestRoutes: requests count per label value, in first-registration order,
// with routes that share a value sharing one sample; the registry serves
// the text format.
func TestRoutes(t *testing.T) {
	r := New()
	mux := http.NewServeMux()
	rt := r.Counter("req_total", "requests").Routes(mux, "endpoint")
	ok := func(w http.ResponseWriter, _ *http.Request) {}
	rt("GET /b", "b", ok)
	rt("GET /a", "a", ok)
	rt("POST /a", "a", ok)
	mux.Handle("GET /metrics", r)
	for _, req := range []string{"GET /a", "POST /a", "GET /b", "GET /a"} {
		method, path, _ := strings.Cut(req, " ")
		mux.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(method, path, nil))
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Errorf("Content-Type %q", ct)
	}
	want := "# HELP req_total requests\n# TYPE req_total counter\nreq_total{endpoint=\"b\"} 1\nreq_total{endpoint=\"a\"} 3\n"
	if got := rec.Body.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

// TestRoutesAllocFree: counting a request allocates nothing.
func TestRoutesAllocFree(t *testing.T) {
	mux := http.NewServeMux()
	New().Counter("req_total", "").Routes(mux, "endpoint")("GET /a", "a", func(http.ResponseWriter, *http.Request) {})
	h, _ := mux.Handler(httptest.NewRequest(http.MethodGet, "/a", nil))
	req := httptest.NewRequest(http.MethodGet, "/a", nil)
	if n := testing.AllocsPerRun(100, func() { h.ServeHTTP(nil, req) }); n != 0 {
		t.Errorf("%v allocs per counted request, want 0", n)
	}
}

// Package expo is the fleet's one metrics registry. Each metric family is
// declared once, with a constant name, its type and its help text; its
// samples read live values (atomics or scrape-time funcs) when /metrics is
// scraped. A Registry renders every family in declaration order in the
// Prometheus text exposition format, version 0.0.4.
package expo

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
)

// Registry holds metric families in declaration order. Declare families
// and samples before the first scrape; rendering takes no lock.
type Registry struct {
	fams []*Family
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// Family is one declared metric family and its samples.
type Family struct {
	name, typ, help string
	samples         []sample
}

// sample is one exposition line: exactly one of i and f is set.
type sample struct {
	labels string // rendered {k="v",...}, or empty
	i      func() int64
	f      func() float64
}

// Counter declares a counter family. name must be a constant; crlint's
// metricname analyzer checks it against the naming convention.
func (r *Registry) Counter(name, help string) *Family { return r.declare(name, "counter", help) }

// Gauge declares a gauge family. name must be a constant.
func (r *Registry) Gauge(name, help string) *Family { return r.declare(name, "gauge", help) }

func (r *Registry) declare(name, typ, help string) *Family {
	f := &Family{name: name, typ: typ, help: helpEscaper.Replace(help)}
	r.fams = append(r.fams, f)
	return f
}

// Int adds a sample that renders v() as %d does. labels are name, value
// pairs.
func (f *Family) Int(v func() int64, labels ...string) *Family {
	f.samples = append(f.samples, sample{labels: renderLabels(labels), i: v})
	return f
}

// Float adds a sample that renders v() as %g does. labels are name, value
// pairs.
func (f *Family) Float(v func() float64, labels ...string) *Family {
	f.samples = append(f.samples, sample{labels: renderLabels(labels), f: v})
	return f
}

// Seconds reads a nanosecond counter as seconds.
func Seconds(ns *atomic.Int64) func() float64 {
	return func() float64 { return float64(ns.Load()) / 1e9 }
}

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

func renderLabels(kv []string) string {
	if len(kv)%2 != 0 {
		panic("expo: labels must be name, value pairs")
	}
	var b strings.Builder
	sep := "{"
	for i := 0; i < len(kv); i += 2 {
		b.WriteString(sep + kv[i] + `="` + labelEscaper.Replace(kv[i+1]) + `"`)
		sep = ","
	}
	if b.Len() > 0 {
		b.WriteByte('}')
	}
	return b.String()
}

// WriteTo renders every family, in declaration order, with one HELP and
// one TYPE line each followed by its samples.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var b []byte
	for _, f := range r.fams {
		b = append(b, "# HELP "+f.name+" "+f.help+"\n# TYPE "+f.name+" "+f.typ+"\n"...)
		for _, s := range f.samples {
			b = append(b, f.name+s.labels+" "...)
			if s.i != nil {
				b = strconv.AppendInt(b, s.i(), 10)
			} else {
				b = strconv.AppendFloat(b, s.f(), 'g', -1, 64)
			}
			b = append(b, '\n')
		}
	}
	n, err := w.Write(b)
	return int64(n), err
}

// ServeHTTP answers a scrape.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = r.WriteTo(w) // a failed write means the scraper went away
}

// Routes returns a route registrar that counts the requests each route
// serves in f, one sample per label value in first-registration order;
// routes registered under the same value share one sample.
func (f *Family) Routes(mux *http.ServeMux, label string) func(pattern, value string, h http.HandlerFunc) {
	counts := make(map[string]*atomic.Int64)
	return func(pattern, value string, h http.HandlerFunc) {
		n := counts[value]
		if n == nil {
			n = new(atomic.Int64)
			counts[value] = n
			f.Int(n.Load, label, value)
		}
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			n.Add(1)
			h(w, r)
		})
	}
}

// Package expo mirrors the real registry's declaration API for the
// metricname fixtures. As the registry package it owns the exposition
// format, so its TYPE lines are not findings.
package expo

import (
	"fmt"
	"io"
)

// Registry holds declared families.
type Registry struct{ names []string }

// Family is one declared family.
type Family struct{}

// Counter declares a counter family.
func (r *Registry) Counter(name, help string) *Family { return r.declare(name, "counter") }

// Gauge declares a gauge family.
func (r *Registry) Gauge(name, help string) *Family { return r.declare(name, "gauge") }

func (r *Registry) declare(name, typ string) *Family {
	r.names = append(r.names, "# TYPE "+name+" "+typ)
	return &Family{}
}

// WriteTo renders the TYPE lines.
func (r *Registry) WriteTo(w io.Writer) {
	for _, n := range r.names {
		fmt.Fprintf(w, "%s\n", n)
	}
}

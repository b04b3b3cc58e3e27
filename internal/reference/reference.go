// Package reference hands the repository's internal tests and benchmarks
// the facade's from-scratch resolution — the differential reference that
// re-encodes the specification every round on a fresh solver. It is not
// public API: package conflictres keeps the switch unexported and installs
// the hook at init.
package reference

import (
	"conflictres/internal/model"
	"conflictres/internal/relation"
)

// Outcome is the part of a facade Result the differential suites compare.
type Outcome struct {
	Valid    bool
	Resolved map[relation.Attr]relation.Value
	Tuple    relation.Tuple
}

// FromScratch resolves spec non-interactively, as conflictres.Resolve does,
// through the from-scratch engine. Nil until package conflictres is linked.
var FromScratch func(spec *model.Spec) (Outcome, error)

package encode

import (
	"reflect"

	"conflictres/internal/constraint"
	"conflictres/internal/model"
)

// Skeleton is the compiled, entity-independent part of the encoding for one
// rule set (Σ, Γ): the rule-set index (the members each constant can make
// live, and each constraint's referenced attributes) and every arena,
// dictionary and scratch table one Encoding needs. Build instantiates the
// skeleton against one entity's tuples, reusing the retained encoding's
// storage — interned value dictionaries, CNF clause arena, instance-body
// arena, dedup tables — instead of re-deriving and re-allocating them per
// entity.
//
// A skeleton serves one goroutine and keeps exactly one encoding alive:
// calling Build invalidates every slice previously obtained from the
// encoding of the prior call (domains, CNF clauses, Ω bodies). The pooled
// resolve pipelines in the core package are the intended owner — one
// skeleton per pipeline, one pipeline per worker.
type Skeleton struct {
	sigma []constraint.Currency
	gamma []constraint.CFD
	opts  Options
	ix    *ruleIndex

	enc    *Encoding
	builds int
	reuses int

	// Memoized slice identities known to equal the skeleton's rule set:
	// specs bound from one compiled rule set share the Σ/Γ backing arrays,
	// and cloned/extended specs re-verify once by content.
	okSigma map[*constraint.Currency]bool
	okGamma map[*constraint.CFD]bool
}

// NewSkeleton pre-compiles a rule set. The constraint slices are retained
// (they are immutable values shared with the specifications the skeleton
// will build).
func NewSkeleton(sigma []constraint.Currency, gamma []constraint.CFD, opts Options) *Skeleton {
	return &Skeleton{sigma: sigma, gamma: gamma, opts: opts, ix: newRuleIndex(sigma, gamma)}
}

// Build compiles spec against the skeleton, reusing the retained encoding's
// storage. A spec whose Σ/Γ do not match the skeleton's rule set falls back
// to a standalone Build: the match is a pointer-identity fast path (specs
// bound from one compiled rule set share the constraint backing arrays)
// with a memoized deep comparison for cloned or extended specs.
func (k *Skeleton) Build(spec *model.Spec) *Encoding {
	k.builds++
	if !k.matches(spec) {
		return Build(spec, k.opts)
	}
	if k.enc == nil {
		k.enc = &Encoding{opts: k.opts}
	} else {
		k.reuses++
	}
	k.enc.init(spec, k.ix)
	return k.enc
}

// matchMemoCap bounds the memoized identity sets; past it, unknown slice
// identities pay the deep comparison each time (correct, just slower).
const matchMemoCap = 64

// matches reports whether spec's constraint sets are the skeleton's.
func (k *Skeleton) matches(spec *model.Spec) bool {
	if len(spec.Sigma) != len(k.sigma) || len(spec.Gamma) != len(k.gamma) {
		return false
	}
	sigOK := len(spec.Sigma) == 0 || &spec.Sigma[0] == &k.sigma[0] || k.okSigma[&spec.Sigma[0]]
	if !sigOK {
		if !reflect.DeepEqual(spec.Sigma, k.sigma) {
			return false
		}
		if k.okSigma == nil {
			k.okSigma = make(map[*constraint.Currency]bool)
		}
		if len(k.okSigma) < matchMemoCap {
			k.okSigma[&spec.Sigma[0]] = true
		}
	}
	gamOK := len(spec.Gamma) == 0 || &spec.Gamma[0] == &k.gamma[0] || k.okGamma[&spec.Gamma[0]]
	if !gamOK {
		if !reflect.DeepEqual(spec.Gamma, k.gamma) {
			return false
		}
		if k.okGamma == nil {
			k.okGamma = make(map[*constraint.CFD]bool)
		}
		if len(k.okGamma) < matchMemoCap {
			k.okGamma[&spec.Gamma[0]] = true
		}
	}
	return true
}

// Options returns the encoder options the skeleton builds with.
func (k *Skeleton) Options() Options { return k.opts }

// Stats reports how many Build calls the skeleton served and how many of
// them reused the retained encoding's storage (the remainder allocated from
// zero).
func (k *Skeleton) Stats() (builds, reuses int) { return k.builds, k.reuses }
